#include "crossbar/programmed_array.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace fecim::crossbar {

ProgrammedArray::ProgrammedArray(const QuantizedCouplings& couplings,
                                 const CrossbarMapping& mapping,
                                 const device::DgFefetParams& device_params,
                                 const device::VariationParams& variation,
                                 std::uint64_t seed, const TileShape& tiles)
    : couplings_(couplings),
      mapping_(mapping),
      device_params_(device_params),
      variation_(variation),
      tiles_(tiles),
      bands_(plan_row_bands(mapping.physical_rows(), tiles.rows)) {
  FECIM_EXPECTS(mapping_.num_spins() == couplings_.num_spins());
  FECIM_EXPECTS(mapping_.bits() == couplings_.bits());

  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t entries = couplings_.nonzeros();
  multipliers_.assign(entries * bits, 1.0F);

  // Counter-keyed programming variation: bit cell c = entry * bits + bit
  // takes its fault roll and V_TH offset from draws at index c of the
  // kCellFault / kCellVth streams, so a cell's programmed state is
  // independent of array size and sampling order (and reproducible in
  // isolation for debugging).  The tile shape never enters the cell index,
  // so re-tiling an array does not reprogram it: the same seed yields the
  // same cells for every TileShape.
  const util::NoiseStream fault_stream(seed, util::stream_site::kCellFault);
  const util::NoiseStream vth_stream(seed, util::stream_site::kCellVth);
  const double stuck_off = variation_.stuck_off_rate;
  const double stuck_any = stuck_off + variation_.stuck_on_rate;
  // A roll in [0, 1) never falls below a zero rate: skip the draw.
  const bool roll_faults =
      stuck_off > 0.0 || variation_.stuck_on_rate > 0.0;
  const double vth_sigma = variation_.vth_sigma;
  // Subthreshold translation of a V_TH offset into a current factor:
  // I ~ exp(-dVth / (n Vt)).
  const double v_slope = device_params_.transistor.slope_factor *
                         device_params_.transistor.thermal_voltage;
  const auto magnitudes = couplings_.magnitudes();

  // Programs entries [first, last) and returns their faulted bit cells and
  // the biased float exponent range of the V_TH-sampled multipliers (the
  // exactness proof's input, scanned here so no array pays a second pass
  // over its cells; a subnormal records exponent 0).  The slots of bits a
  // cell does not store are zeroed instead: the readout sweep can then
  // accumulate every (cell, bit) unconditionally -- absent bits contribute
  // exact +0.0 -- which removes the per-bit presence branch from the hot
  // loop and keeps it vectorizable.  bit_multiplier() and
  // multipliers() therefore report 0 for absent bits, and absent bits are
  // never counted as faulted.
  struct ChunkStats {
    std::size_t faults = 0;
    std::uint32_t exponent_lo = 0xFF;
    std::uint32_t exponent_hi = 0;
  };
  const auto program = [&](std::size_t first, std::size_t last) {
    ChunkStats stats;
    std::size_t& faults = stats.faults;
    for (std::size_t entry = first; entry < last; ++entry) {
      const auto abs_mag =
          static_cast<std::uint32_t>(std::abs(magnitudes[entry]));
      float* entry_mults = multipliers_.data() + entry * bits;
      for (std::size_t b = 0; b < bits; ++b) {
        if (!(abs_mag & (1u << b))) {
          entry_mults[b] = 0.0F;
          continue;
        }
        const std::size_t cell = entry * bits + b;
        if (roll_faults) {
          const double roll = fault_stream.uniform01(cell);
          if (roll < stuck_off) {
            entry_mults[b] = 0.0F;
            ++faults;
            continue;
          }
          if (roll < stuck_any) {
            entry_mults[b] = 1.0F;
            ++faults;
            continue;
          }
        }
        if (vth_sigma > 0.0) {
          const double dvth = vth_stream.normal(cell, 0.0, vth_sigma);
          const auto m = static_cast<float>(std::exp(-dvth / v_slope));
          entry_mults[b] = m;
          if (m != 0.0F) {
            const std::uint32_t e = std::bit_cast<std::uint32_t>(m) >> 23;
            stats.exponent_lo = std::min(stats.exponent_lo, e);
            stats.exponent_hi = std::max(stats.exponent_hi, e);
          }
        }
      }
    }
    return stats;
  };

  // Sampled arrays program in fixed chunks of whole entries, one pool task
  // per chunk.  Every cell is a pure function of its index (PERF.md
  // invariant 2) and the per-chunk fault counts sum exactly, so the result
  // is identical for every thread count.  Arrays of one chunk run inline,
  // and so do unsampled ones, whose loop only zeroes absent bits.
  const std::size_t chunk_entries = kProgramChunkCells / bits;
  const std::size_t chunks = (entries + chunk_entries - 1) / chunk_entries;
  ChunkStats stats;
  if (chunks <= 1 || !(roll_faults || vth_sigma > 0.0)) {
    stats = program(0, entries);
  } else {
    std::vector<ChunkStats> chunk_stats(chunks);
    util::parallel_for(chunks, [&](std::size_t c) {
      const std::size_t first = c * chunk_entries;
      chunk_stats[c] =
          program(first, std::min(first + chunk_entries, entries));
    });
    for (const auto& chunk : chunk_stats) {
      stats.faults += chunk.faults;
      stats.exponent_lo = std::min(stats.exponent_lo, chunk.exponent_lo);
      stats.exponent_hi = std::max(stats.exponent_hi, chunk.exponent_hi);
    }
  }
  faulted_ = stats.faults;
  // Cells the V_TH loop did not sample hold 1.0f (biased exponent 127):
  // every cell of an array without V_TH spread, and stuck-on cells.
  if (entries > 0 && (vth_sigma <= 0.0 || variation_.stuck_on_rate > 0.0)) {
    stats.exponent_lo = std::min(stats.exponent_lo, 127u);
    stats.exponent_hi = std::max(stats.exponent_hi, 127u);
  }

  build_column_cache(stats.exponent_lo, stats.exponent_hi);
}

TilePlan ProgrammedArray::plan(const circuit::WireTech& wire) const {
  return plan_tiles(mapping_, tiles_, on_current(device_params_.vbg_max),
                    device_params_.read_vdl, wire);
}

void ProgrammedArray::build_column_cache(std::uint32_t exponent_lo,
                                         std::uint32_t exponent_hi) {
  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t n = couplings_.num_spins();
  const std::size_t num_bands = bands_.size();
  FECIM_EXPECTS(bits >= 1 && bits <= 16);

  present_count_.assign(num_bands * n, 0);
  present_total_.assign(n, 0);
  present_union_.assign(n, 0);
  active_bands_.assign(n, 0);
  band_cell_ptr_.assign(n * (num_bands + 1), 0);
  slot_ptr_.assign(num_bands * n + 1, 0);

  // One pass over every column's cells.  Cells within a column are stored
  // in ascending row order, so each row band owns one contiguous sub-range:
  // resolve the band boundaries, and per (band, column) the mask of present
  // segments, bit (bit * 2 + plane) -- OR the band's |magnitudes| per sign,
  // then interleave the two planes.  Presence ignores the multipliers.
  std::vector<std::uint32_t> present_masks(num_bands * n, 0);
  std::size_t total_slots = 0;
  std::size_t max_cells = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto view = column(j);
    max_cells = std::max(max_cells, view.rows.size());
    auto* ptr = band_cell_ptr_.data() + j * (num_bands + 1);
    std::uint32_t union_mask = 0;
    std::size_t k = 0;
    for (std::size_t band = 0; band < num_bands; ++band) {
      ptr[band] = static_cast<std::uint32_t>(k);
      std::uint32_t plane_bits[2] = {0, 0};
      for (; k < view.rows.size() && view.rows[k] < bands_[band].row_end;
           ++k) {
        const std::int32_t mag = view.magnitudes[k];
        plane_bits[mag < 0 ? 1 : 0] |=
            static_cast<std::uint32_t>(std::abs(mag));
      }
      std::uint32_t mask = 0;
      for (std::size_t b = 0; b < bits; ++b)
        mask |= ((plane_bits[0] >> b) & 1u) << (b * 2) |
                ((plane_bits[1] >> b) & 1u) << (b * 2 + 1);
      present_masks[band * n + j] = mask;
      union_mask |= mask;
      total_slots += static_cast<std::size_t>(std::popcount(mask));
      if (mask != 0) ++active_bands_[j];
    }
    ptr[num_bands] = static_cast<std::uint32_t>(k);
    FECIM_ASSERT(k == view.rows.size());
    present_union_[j] =
        static_cast<std::uint32_t>(std::popcount(union_mask));
  }

  // Compacted conversion slots, band-major, each (band, column) in the
  // canonical order -- bit ascending, + plane before - -- which is also the
  // noise-cursor walk.
  slot_src_.reserve(total_slots);
  slot_weight_.reserve(total_slots);
  for (std::size_t slot = 0; slot < num_bands * n; ++slot) {
    const std::uint32_t mask = present_masks[slot];
    for (std::size_t s = 0; s < bits * 2; ++s) {
      if (!((mask >> s) & 1u)) continue;
      const std::size_t b = s >> 1;
      const std::size_t plane = s & 1;
      slot_src_.push_back(static_cast<std::uint8_t>(plane * bits + b));
      slot_weight_.push_back((plane == 0 ? 1.0 : -1.0) *
                             static_cast<double>(1u << b));
    }
    present_count_[slot] = static_cast<std::uint32_t>(std::popcount(mask));
    present_total_[slot % n] += present_count_[slot];
    slot_ptr_[slot + 1] = static_cast<std::uint32_t>(slot_src_.size());
  }

  // A column sums at most max_cells multipliers below 2^(e_max + 1), so
  // its squares scaled by 2^-(2 (e_max + 1) + width - 53) sum below 2^53
  // and every grid-rounded squared sum is exact.  Its multipliers are
  // multiples of 2^(e_min - 23), so their sums need (e_max - e_min) + 24 +
  // width significant bits: exact in double while that is at most 53.
  const int width = std::bit_width(max_cells);
  const int e_max = exponent_lo <= exponent_hi
                        ? static_cast<int>(exponent_hi) - 127
                        : 0;
  square_grid_ = std::ldexp(1.0, 2 * (e_max + 1) + width - 53);
  inv_square_grid_ = 1.0 / square_grid_;
  const bool exact_sums =
      exponent_lo <= exponent_hi && exponent_lo > 0 &&
      static_cast<int>(exponent_hi - exponent_lo) + width <= 29;
  if (exact_sums && total_slots > 0 && total_slots <= kIncrementalMaxSlots)
    build_mirror();
}

void ProgrammedArray::build_mirror() {
  // Columns ascending: column r's cell at row j must be the next unmatched
  // cell of column r when column j is visited, because column r's rows
  // ascend too.  Any missing mirror leaves a cursor short or mismatched.
  const std::size_t n = num_columns();
  const std::uint32_t* const rows = couplings_.column_rows(0).data();
  std::vector<std::size_t> cursor(n);
  for (std::size_t r = 0; r < n; ++r) cursor[r] = couplings_.column_begin(r);
  mirror_.resize(couplings_.nonzeros());
  bool symmetric = true;
  for (std::size_t j = 0; j < n && symmetric; ++j) {
    for (std::size_t e = couplings_.column_begin(j);
         e < couplings_.column_begin(j + 1); ++e) {
      const std::uint32_t r = rows[e];
      const std::size_t c = cursor[r];
      const std::size_t offset = c - couplings_.column_begin(r);
      if (r == j || c >= couplings_.column_begin(r + 1) || rows[c] != j ||
          offset > UINT16_MAX) {
        symmetric = false;
        break;
      }
      mirror_[e] = static_cast<std::uint16_t>(offset);
      cursor[r] = c + 1;
    }
  }
  for (std::size_t r = 0; r < n && symmetric; ++r)
    symmetric = cursor[r] == couplings_.column_begin(r + 1);
  if (!symmetric) mirror_.clear();
}

double ProgrammedArray::on_current(double vbg) const noexcept {
  return device::DgFefet::on_current(device_params_, vbg);
}

ProgrammedArray::ColumnView ProgrammedArray::column(std::size_t j) const {
  ColumnView view;
  view.rows = couplings_.column_rows(j);
  view.magnitudes = couplings_.column_values(j);
  // Entry index of the first element in this column: the spans are slices
  // of the underlying arrays, so recover the offset from pointers.
  view.first_entry = view.rows.empty()
                         ? 0
                         : static_cast<std::size_t>(
                               view.rows.data() -
                               couplings_.column_rows(0).data());
  return view;
}

double ProgrammedArray::bit_multiplier(std::size_t entry, int bit) const {
  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t index = entry * bits + static_cast<std::size_t>(bit);
  FECIM_EXPECTS(index < multipliers_.size());
  return multipliers_[index];
}

std::size_t ProgrammedArray::approx_bytes() const noexcept {
  auto vec_bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  // The coupling copy's CSC arrays: sizes recoverable through the public
  // interface (col_ptr is n + 1 size_t entries, row/value arrays nonzeros
  // each).
  const std::size_t coupling_bytes =
      (couplings_.num_spins() + 1) * sizeof(std::size_t) +
      couplings_.nonzeros() * (sizeof(std::uint32_t) + sizeof(std::int32_t));
  return sizeof(*this) + coupling_bytes + vec_bytes(bands_) +
         vec_bytes(multipliers_) + vec_bytes(present_count_) +
         vec_bytes(present_total_) + vec_bytes(present_union_) +
         vec_bytes(active_bands_) + vec_bytes(band_cell_ptr_) +
         vec_bytes(slot_src_) + vec_bytes(slot_weight_) +
         vec_bytes(slot_ptr_) + vec_bytes(mirror_);
}

}  // namespace fecim::crossbar
