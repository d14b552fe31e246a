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

  // Programs entries [first, last) and returns their faulted bit cells.
  // The slots of bits a cell does not store are zeroed instead: the
  // stochastic readout sweep can then accumulate every (cell, bit)
  // unconditionally -- absent bits contribute exact +0.0 -- which removes
  // the per-bit presence branch from the hot loop and keeps it
  // vectorizable.  bit_multiplier() and multipliers() therefore report 0
  // for absent bits, and absent bits are never counted as faulted.
  const auto program = [&](std::size_t first, std::size_t last) {
    std::size_t faults = 0;
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
          entry_mults[b] = static_cast<float>(std::exp(-dvth / v_slope));
        }
      }
    }
    return faults;
  };

  // Sampled arrays program in fixed chunks of whole entries, one pool task
  // per chunk.  Every cell is a pure function of its index (PERF.md
  // invariant 2) and the per-chunk fault counts sum exactly, so the result
  // is identical for every thread count.  Arrays of one chunk run inline,
  // and so do unsampled ones, whose loop only zeroes absent bits.
  const std::size_t chunk_entries = kProgramChunkCells / bits;
  const std::size_t chunks = (entries + chunk_entries - 1) / chunk_entries;
  if (chunks <= 1 || !(roll_faults || vth_sigma > 0.0)) {
    faulted_ = program(0, entries);
  } else {
    std::vector<std::size_t> chunk_faults(chunks);
    util::parallel_for(chunks, [&](std::size_t c) {
      const std::size_t first = c * chunk_entries;
      chunk_faults[c] =
          program(first, std::min(first + chunk_entries, entries));
    });
    for (const std::size_t faults : chunk_faults) faulted_ += faults;
  }

  build_column_cache();
}

TilePlan ProgrammedArray::plan(const circuit::WireTech& wire) const {
  return plan_tiles(mapping_, tiles_, on_current(device_params_.vbg_max),
                    device_params_.read_vdl, wire);
}

void ProgrammedArray::build_column_cache() {
  const auto bits = static_cast<std::size_t>(couplings_.bits());
  const std::size_t n = couplings_.num_spins();
  const std::size_t num_bands = bands_.size();
  FECIM_EXPECTS(bits >= 1 && bits <= 16);

  segments_.assign(num_bands * n * bits * 2, SegmentRef{});
  class_ptr_.assign(num_bands * n + 1, 0);
  slot_ptr_.assign(num_bands * n + 1, 0);
  slot_src_.clear();
  slot_weight_.clear();
  classes_.clear();
  class_weights_.clear();
  present_count_.assign(num_bands * n, 0);
  present_total_.assign(n, 0);
  present_union_.assign(n, 0);
  active_bands_.assign(n, 0);
  band_cell_ptr_.assign(n * (num_bands + 1), 0);
  cache_rows_.clear();
  cache_mults_.clear();
  // Heuristic reserve: with segment-class dedup the common cases (unit
  // weights, coarse quantization) store each programmed entry about once;
  // fully-distinct multipliers can grow this toward nonzeros * bits, which
  // the vectors absorb geometrically during this one-time build and
  // shrink_to_fit trims below.
  cache_rows_.reserve(couplings_.nonzeros());
  cache_mults_.reserve(couplings_.nonzeros());

  // Cells within a column are stored in ascending row order, so each row
  // band owns one contiguous sub-range of the column's cells: resolve the
  // band boundaries once per column for the stochastic per-cell sweep.
  for (std::size_t j = 0; j < n; ++j) {
    const auto view = column(j);
    auto* ptr = band_cell_ptr_.data() + j * (num_bands + 1);
    std::size_t k = 0;
    for (std::size_t b = 0; b < num_bands; ++b) {
      ptr[b] = static_cast<std::uint32_t>(k);
      while (k < view.rows.size() && view.rows[k] < bands_[b].row_end) ++k;
    }
    ptr[num_bands] = static_cast<std::uint32_t>(k);
    FECIM_ASSERT(k == view.rows.size());
  }

  std::vector<std::uint32_t> stage_rows;
  std::vector<float> stage_mults;
  // Per-column scratch tracking the union of present segments over bands.
  std::vector<std::uint32_t> union_mask(n, 0);

  for (std::size_t band = 0; band < num_bands; ++band) {
    const std::uint32_t row0 = bands_[band].row_begin;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t slot = band * n + j;
      const auto view = column(j);
      const auto range = column_band_cells(band, j);
      const std::size_t class_base = classes_.size();
      bool band_active = false;
      for (std::size_t b = 0; b < bits; ++b) {
        for (int plane = 0; plane < 2; ++plane) {
          stage_rows.clear();
          stage_mults.clear();
          bool present = false;
          bool all_unit = true;
          for (std::size_t k = range.begin; k < range.end; ++k) {
            const std::int32_t mag = view.magnitudes[k];
            const auto abs_mag = static_cast<std::uint32_t>(std::abs(mag));
            if (!(abs_mag & (1u << b))) continue;
            if ((mag < 0 ? 1 : 0) != plane) continue;
            present = true;
            const float m = multipliers_[(view.first_entry + k) * bits + b];
            if (m == 0.0F) continue;  // stuck-off: exact +0.0 contribution
            stage_rows.push_back(view.rows[k] - row0);  // band-relative
            stage_mults.push_back(m);
            all_unit &= m == 1.0F;
          }
          auto& seg =
              segments_[(slot * bits + b) * 2 + static_cast<std::size_t>(plane)];
          seg.present = present ? 1 : 0;
          if (!present) continue;
          band_active = true;
          union_mask[j] |= 1u << (b * 2 + static_cast<std::size_t>(plane));

          // Dedupe against this (band, column)'s existing classes: identical
          // cell lists (common under coarse quantization, universal for unit
          // weights) share one accumulation per evaluation.
          std::size_t cls = classes_.size();
          for (std::size_t ci = class_base; ci < classes_.size(); ++ci) {
            const auto& cand = classes_[ci];
            const std::size_t len = cand.end - cand.begin;
            if (len != stage_rows.size()) continue;
            bool match = true;
            for (std::size_t e = 0; e < len && match; ++e) {
              match = cache_rows_[cand.begin + e] == stage_rows[e] &&
                      cache_mults_[cand.begin + e] == stage_mults[e];
            }
            if (match) {
              cls = ci;
              break;
            }
          }
          if (cls == classes_.size()) {
            SegmentClass fresh;
            fresh.begin = static_cast<std::uint32_t>(cache_rows_.size());
            cache_rows_.insert(cache_rows_.end(), stage_rows.begin(),
                               stage_rows.end());
            cache_mults_.insert(cache_mults_.end(), stage_mults.begin(),
                                stage_mults.end());
            fresh.end = static_cast<std::uint32_t>(cache_rows_.size());
            fresh.all_unit = all_unit ? 1 : 0;
            classes_.push_back(fresh);
            class_weights_.push_back(0.0);
          }
          // A (band, column) has at most bits * 2 <= 32 segments, so at most
          // 32 distinct classes -- the engine's accumulator banks rely on
          // this.
          const std::size_t local = cls - class_base;
          FECIM_ASSERT(local < 32);
          seg.cls = static_cast<std::uint8_t>(local);
          class_weights_[cls] +=
              (plane == 0 ? 1.0 : -1.0) * static_cast<double>(1u << b);
          ++present_count_[slot];
          // Compacted slot metadata (canonical order: this b-outer,
          // plane-inner loop IS the noise-cursor walk).
          slot_src_.push_back(static_cast<std::uint8_t>(
              static_cast<std::size_t>(plane) * bits + b));
          slot_weight_.push_back((plane == 0 ? 1.0 : -1.0) *
                                 static_cast<double>(1u << b));
        }
      }
      class_ptr_[slot + 1] = static_cast<std::uint32_t>(classes_.size());
      slot_ptr_[slot + 1] = static_cast<std::uint32_t>(slot_src_.size());
      present_total_[j] += present_count_[slot];
      if (band_active) ++active_bands_[j];
    }
  }

  for (std::size_t j = 0; j < n; ++j)
    present_union_[j] =
        static_cast<std::uint32_t>(std::popcount(union_mask[j]));

  cache_rows_.shrink_to_fit();
  cache_mults_.shrink_to_fit();
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
         vec_bytes(multipliers_) + vec_bytes(segments_) + vec_bytes(classes_) +
         vec_bytes(class_ptr_) + vec_bytes(cache_rows_) +
         vec_bytes(cache_mults_) + vec_bytes(class_weights_) +
         vec_bytes(present_count_) + vec_bytes(present_total_) +
         vec_bytes(present_union_) + vec_bytes(active_bands_) +
         vec_bytes(band_cell_ptr_) + vec_bytes(slot_src_) +
         vec_bytes(slot_weight_) + vec_bytes(slot_ptr_);
}

}  // namespace fecim::crossbar
