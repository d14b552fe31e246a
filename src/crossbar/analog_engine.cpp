#include "crossbar/analog_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace fecim::crossbar {

namespace {

circuit::SarAdcParams resolve_adc_params(const AnalogEngineConfig& config,
                                         const ProgrammedArray& array) {
  circuit::SarAdcParams params = config.adc;
  const double i_on_max =
      array.on_current(array.device_params().vbg_max);
  params.full_scale_current = i_on_max * config.full_scale_cells;
  return params;
}

/// Converts `count` lanes: lane i carries its sum[i], squared sum sq[i]
/// (read only with kTrackSq) and keyed draw z[i], and gets its ADC code in
/// code[i].  A plain element-wise loop over the lanes of any number of
/// units, which vectorizes at unit stride.  Kept `noinline` as a
/// vectorization barrier: inlined into its caller, GCC's induction-variable
/// rewrite defeats the vectorization (same failure mode as the ziggurat
/// fill pass, see util/rng.cpp).
template <bool kTrackSq>
__attribute__((noinline)) void convert_lanes(
    const double* FECIM_RESTRICT sum, const double* FECIM_RESTRICT sq,
    const double* FECIM_RESTRICT z, double* FECIM_RESTRICT code,
    std::size_t count, double current_scale, double noise_var_scale,
    double adc_variance, double sigma_adc,
    const circuit::SarAdc& adc) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    // Same sigma expression tree as the reference kernel: readout_sigma of
    // the scaled squared sum, or the bare ADC sigma when read noise is off.
    const double sigma =
        kTrackSq ? readout_sigma(noise_var_scale * sq[i], adc_variance)
                 : sigma_adc;
    code[i] = adc.convert_ideal_d(current_scale * sum[i] + sigma * z[i]);
  }
}

/// A band's conversion factors: the current per unit multiplier sum and the
/// read-noise variance per unit squared sum.  Association mirrors the
/// per-cell form, (i_on * att) * sum and ((rel * i_on) * att)^2 * sq_sum,
/// keeping results bit-identical.
struct BandScale {
  double current = 1.0;
  double noise_var = 1.0;
};
inline BandScale band_scale(double i_on, double read_noise_rel,
                            double attenuation) noexcept {
  const double noise = (read_noise_rel * i_on) * attenuation;
  return {i_on * attenuation, noise * noise};
}

/// Code sum of one unit from its converted [pass][slot] lanes `code` and
/// its slots' signed digital weights plane_sign * 2^bit: sum_slot weight *
/// (code(+1 pass) - code(-1 pass)).  Every term is an exact integer-valued
/// double (|code| < 2^13 scaled by 2^bit < 2^16), so any association --
/// here two independent accumulators, which suit the few slots a unit has
/// -- equals the historical int64 shift-and-add bit for bit.
inline double unit_code_sum(const double* FECIM_RESTRICT code,
                            const double* FECIM_RESTRICT weight,
                            std::size_t present) noexcept {
  const double* FECIM_RESTRICT minus = code + present;
  double even = 0.0;
  double odd = 0.0;
  std::size_t i = 0;
  for (; i + 2 <= present; i += 2) {
    even += weight[i] * (code[i] - minus[i]);
    odd += weight[i + 1] * (code[i + 1] - minus[i + 1]);
  }
  if (i < present) even += weight[i] * (code[i] - minus[i]);
  return even + odd;
}

/// Accumulates a column's cells [range.begin, range.end) into dense bank
/// sums packed [bank * 2bits + plane * bits + bit] -- bank 0 holds the rows
/// whose spin is +1 -- skipping rows marked in `skip`; with `squares`, also
/// their squared multipliers in units of the array's square grid
/// (grid_units).  The sums stay in the column's cell order, and the inner
/// bit loop is branch-free and unit-stride (absent bits store multiplier 0).
FECIM_ALWAYS_INLINE inline void accumulate_banks(
    const ProgrammedArray::ColumnView& view,
    ProgrammedArray::BandCellRange range, const ising::Spin* spins,
    const std::uint8_t* skip, const float* mults, std::size_t bits,
    bool squares, double inv_grid, double* FECIM_RESTRICT nsum,
    double* FECIM_RESTRICT nsq) noexcept {
  const std::size_t slots = 2 * bits;
  for (std::size_t i = 0; i < 2 * slots; ++i) nsum[i] = 0.0;
  if (squares)
    for (std::size_t i = 0; i < 2 * slots; ++i) nsq[i] = 0.0;
  for (std::size_t k = range.begin; k < range.end; ++k) {
    const auto row = view.rows[k];
    if (skip[row] != 0) continue;
    // 0/1 selectors times strides, not a selected stride: spins are random
    // +-1, so a select the compiler turns into a branch mispredicts half
    // the time.
    const std::size_t bank = spins[row] > 0 ? 0 : 1;
    const std::size_t plane = view.magnitudes[k] < 0 ? 1 : 0;
    const std::size_t offset = bank * slots + plane * bits;
    const float* FECIM_RESTRICT m = mults + (view.first_entry + k) * bits;
    double* FECIM_RESTRICT sum = nsum + offset;
    if (squares) {
      double* FECIM_RESTRICT sq = nsq + offset;
      for (std::size_t b = 0; b < bits; ++b) {
        sum[b] += m[b];
        sq[b] += grid_units(m[b], inv_grid);
      }
    } else {
      // No read noise (the default config): the squared sums are never
      // read, so skip half the arithmetic.
      for (std::size_t b = 0; b < bits; ++b) sum[b] += m[b];
    }
  }
}

/// Index of row `row` among a column's cells `rows` (ascending), or
/// rows.size() when the column stores no cell there: a branch-free count
/// of the smaller rows, which vectorizes, instead of a binary search whose
/// branches a random row mispredicts.
std::size_t find_cell(std::span<const std::uint32_t> rows,
                      std::uint32_t row) noexcept {
  const std::uint32_t* FECIM_RESTRICT r = rows.data();
  std::size_t below = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) below += r[k] < row ? 1 : 0;
  return below < rows.size() && r[below] == row ? below : rows.size();
}

/// Starts loading `bytes` bytes from `data`, one cache line at a time.
inline void prefetch_bytes(const void* data, std::size_t bytes) noexcept {
  const char* p = static_cast<const char*>(data);
  for (std::size_t offset = 0; offset < bytes; offset += 64)
    __builtin_prefetch(p + offset);
}

/// How many cells ahead of its move on_flips_applied() starts loading a
/// cell's multiplier row and state block.
constexpr std::size_t kPrefetchCells = 8;

}  // namespace

AnalogCrossbarEngine::AnalogCrossbarEngine(
    std::shared_ptr<const ProgrammedArray> array,
    const AnalogEngineConfig& config)
    : array_(std::move(array)),
      config_(config),
      adc_(resolve_adc_params(config, *array_)) {
  FECIM_EXPECTS(array_ != nullptr);
  i_on_max_ = array_->on_current(array_->device_params().vbg_max);
  FECIM_EXPECTS(i_on_max_ > 0.0);
  const auto bands = array_->bands();
  band_attenuation_.assign(bands.size(), 1.0);
  if (config_.model_ir_drop) {
    if (config_.cached_band_ir_attenuation.size() == bands.size()) {
      band_attenuation_ = config_.cached_band_ir_attenuation;
    } else {
      // At most two distinct band heights under the balanced split (full
      // bands plus one remainder), so at most two MNA solves.
      for (std::size_t b = 0; b < bands.size(); ++b) {
        if (b > 0 && bands[b].rows() == bands[b - 1].rows()) {
          band_attenuation_[b] = band_attenuation_[b - 1];
        } else {
          band_attenuation_[b] =
              circuit::estimate_line_parasitics(
                  bands[b].rows(), i_on_max_,
                  array_->device_params().read_vdl, config_.wire)
                  .ir_attenuation;
        }
      }
    }
  }
  noise_ = ReadoutNoise::for_run(0);
  // Per-tile digital calibration factors (see the e_inc merge in
  // evaluate()); constant per engine, so the per-evaluation merge is a
  // multiply instead of a divide per band.
  band_to_einc_.resize(bands.size());
  for (std::size_t b = 0; b < bands.size(); ++b)
    band_to_einc_[b] = array_->couplings().scale() * adc_.lsb_current() /
                       (i_on_max_ * band_attenuation_[b]);
  workspace_.flip_mask.assign(array_->mapping().num_spins(), 0);
  workspace_.band_acc.assign(bands.size(), 0.0);
  for (std::size_t j = 0; j < num_spins(); ++j)
    max_column_lanes_ =
        std::max<std::size_t>(max_column_lanes_,
                              2 * array_->column_total_present_segments(j));
}

void AnalogCrossbarEngine::LaneBuffer::reserve(std::size_t lanes) {
  if (lanes <= capacity) return;
  storage.resize(4 * lanes);
  capacity = lanes;
}

void AnalogCrossbarEngine::begin_run(std::uint64_t run_seed) {
  noise_ = ReadoutNoise::for_run(run_seed);
  // The window holds the previous key's draws: drop it, so the run's first
  // read (at cursor 0) refills it.
  window_end_ = 0;
  state_live_ = false;
}

void AnalogCrossbarEngine::refill_window() {
  if (window_.size() < kDrawWindow) window_.resize(kDrawWindow);
  noise_.conversion.normal_fill(noise_.next_conversion, window_);
  window_end_ = noise_.next_conversion + kDrawWindow;
}

const double* AnalogCrossbarEngine::window_draws(std::size_t count) {
  if (noise_.next_conversion == window_end_) refill_window();
  const std::uint64_t next = noise_.next_conversion;
  // The cursor lies inside the window: only begin_run() moves it back, and
  // it drops the window.
  FECIM_ASSERT(window_end_ - next <= kDrawWindow);
  if (window_end_ - next >= count) {
    noise_.next_conversion = next + count;
    return window_.data() + (next - (window_end_ - kDrawWindow));
  }
  // The read straddles the window's end: copy its draws, refilling the
  // window each time the cursor reaches its end.
  double* out = lanes_.z();
  for (std::size_t done = 0; done < count;) {
    if (noise_.next_conversion == window_end_) refill_window();
    const auto offset = static_cast<std::size_t>(
        noise_.next_conversion - (window_end_ - kDrawWindow));
    const std::size_t take =
        std::min<std::size_t>(count - done, kDrawWindow - offset);
    std::copy_n(window_.data() + offset, take, out + done);
    done += take;
    noise_.next_conversion += take;
  }
  return out;
}

void AnalogCrossbarEngine::enable_incremental_readout() {
  if (!array_->supports_incremental_readout()) return;
  incremental_ = true;
  state_live_ = false;
  state_stride_ = array_->variation_params().read_noise_rel > 0.0 ? 4 : 2;
  state_.assign(state_stride_ * array_->num_slots(), 0.0);
  // Each (band, column)'s slots regrouped by plane, for the moves.
  const auto bits = static_cast<std::size_t>(array_->couplings().bits());
  plane_slots_.assign(array_->num_bands() * num_spins(), 0);
  move_slot_.assign(array_->num_slots(), 0);
  move_bit_.assign(array_->num_slots(), 0);
  for (std::size_t band = 0; band < array_->num_bands(); ++band)
    for (std::size_t j = 0; j < num_spins(); ++j) {
      const auto src = array_->column_slot_src(band, j);
      const std::size_t base = array_->column_slot_begin(band, j);
      std::size_t t = 0;
      for (std::uint32_t plane = 0; plane < 2; ++plane) {
        for (std::size_t i = 0; i < src.size(); ++i) {
          if (src[i] / bits != plane) continue;
          move_slot_[base + t] = static_cast<std::uint8_t>(i);
          move_bit_[base + t] = static_cast<std::uint8_t>(src[i] % bits);
          ++t;
        }
        if (plane == 0)
          plane_slots_[band * num_spins() + j] = static_cast<std::uint8_t>(t);
      }
    }
}

void AnalogCrossbarEngine::build_incremental_state(
    std::span<const ising::Spin> spins) {
  // The sweep's accumulation with no flipped rows (the flip mask is clear
  // when this runs); every sum is exact (supports_incremental_readout), so
  // a total is the exact sum of its banks.
  const auto bits = static_cast<std::size_t>(array_->couplings().bits());
  const std::size_t slots = 2 * bits;
  const bool squares = state_stride_ == 4;
  const double grid = array_->square_grid();
  const double* nsum = scratch_.nsum;
  const double* nsq = scratch_.nsq;
  for (std::size_t band = 0; band < array_->num_bands(); ++band) {
    for (std::size_t j = 0; j < num_spins(); ++j) {
      const auto src = array_->column_slot_src(band, j);
      if (src.empty()) continue;
      accumulate_banks(array_->column(j), array_->column_band_cells(band, j),
                       spins.data(), workspace_.flip_mask.data(),
                       array_->multipliers().data(), bits, squares,
                       1.0 / grid, scratch_.nsum, scratch_.nsq);
      const std::size_t present = src.size();
      double* block =
          state_.data() + state_stride_ * array_->column_slot_begin(band, j);
      for (std::size_t i = 0; i < present; ++i) {
        block[i] = nsum[src[i]];
        block[present + i] = nsum[src[i]] + nsum[slots + src[i]];
        if (!squares) continue;
        block[2 * present + i] = nsq[src[i]] * grid;
        block[3 * present + i] = (nsq[src[i]] + nsq[slots + src[i]]) * grid;
      }
    }
  }
  state_live_ = true;
}

void AnalogCrossbarEngine::mark_flips(const ising::FlipSet& flips,
                                      bool distinct) {
  auto& mask = workspace_.flip_mask;
  // Validate before marking so a contract throw cannot leave stale bits in
  // the reusable mask (contract_error is catchable; a dirty mask would
  // silently corrupt every later evaluation).
  for (const auto f : flips) FECIM_EXPECTS(f < mask.size());
  std::size_t marked = 0;
  for (const auto f : flips) {
    marked += mask[f] == 0 ? 1 : 0;
    mask[f] = 1;
  }
  if (distinct && marked != flips.size()) {
    for (const auto f : flips) mask[f] = 0;
    FECIM_EXPECTS(marked == flips.size());
  }
}

FECIM_ALWAYS_INLINE inline void AnalogCrossbarEngine::move_plane(
    double* FECIM_RESTRICT sum, double* FECIM_RESTRICT sq, std::size_t base,
    std::size_t present, std::size_t plus_slots, std::uint32_t plane,
    const float* FECIM_RESTRICT m, std::size_t bits, double s, double grid,
    double inv_grid) const {
  // Adding s * m equals the historical add or subtract of m, and on an
  // array with supports_incremental_readout() every result is an exact
  // subset sum of the segment's cells, so moves commute.  The plane's slots
  // start at base (+ plane) or base + plus_slots (- plane).
  const std::size_t first = plane == 0 ? 0 : plus_slots;
  const std::size_t count = plane == 0 ? plus_slots : present - plus_slots;
  if (present == bits && (plus_slots == 0 || plus_slots == present)) {
    // A one-plane column with every bit present: its slots are the plane's
    // bits 0 .. bits-1 in order (first is 0 whenever count is not), so the
    // bit row adds as it is.
    for (std::size_t b = 0; b < count; ++b) sum[b] += s * m[b];
    if (sq != nullptr)
      for (std::size_t b = 0; b < count; ++b)
        sq[b] += s * grid_square(m[b], grid, inv_grid);
    return;
  }
  const std::uint8_t* FECIM_RESTRICT slot = move_slot_.data() + base + first;
  const std::uint8_t* FECIM_RESTRICT bit = move_bit_.data() + base + first;
  for (std::size_t t = 0; t < count; ++t) sum[slot[t]] += s * m[bit[t]];
  if (sq != nullptr)
    for (std::size_t t = 0; t < count; ++t)
      sq[slot[t]] += s * grid_square(m[bit[t]], grid, inv_grid);
}

void AnalogCrossbarEngine::on_flips_applied(
    std::span<const ising::Spin> spins_after, const ising::FlipSet& flips) {
  if (!state_live_) return;
  FECIM_EXPECTS(spins_after.size() == num_spins());
  // Each row moves to its new bank once: check the whole set before the
  // first move, so a rejected report leaves the state untouched.
  mark_flips(flips, true);
  for (const auto f : flips) workspace_.flip_mask[f] = 0;
  const auto& couplings = array_->couplings();
  const auto bits = static_cast<std::size_t>(couplings.bits());
  const auto magnitudes = couplings.magnitudes();
  const float* const mults = array_->multipliers().data();
  const std::uint16_t* const mirror = array_->mirror_offsets().data();
  const double grid = array_->square_grid();
  const double inv_grid = 1.0 / grid;
  const std::size_t stride = state_stride_;
  const bool squares = stride == 4;
  const std::size_t n = num_spins();
  const auto bands = array_->bands();
  for (const auto f : flips) {
    // Row f's cells sit in its band, one in each column j that column f
    // couples to (symmetric pattern); the mirror offsets locate them.
    std::size_t band = 0;
    while (f >= bands[band].row_end) ++band;
    const double s = spins_after[f] > 0 ? 1.0 : -1.0;
    const auto view = array_->column(f);
    const std::size_t cells = view.rows.size();
    const std::uint16_t* const cell_mirror = mirror + view.first_entry;
    for (std::size_t k = 0; k < cells; ++k) {
      // The cells' multiplier rows and state blocks are scattered over the
      // array: start loading those of the cell kPrefetchCells ahead.
      if (k + kPrefetchCells < cells) {
        const std::uint32_t ahead = view.rows[k + kPrefetchCells];
        __builtin_prefetch(mults + (couplings.column_begin(ahead) +
                                    cell_mirror[k + kPrefetchCells]) *
                                       bits);
        __builtin_prefetch(state_.data() +
                           stride * array_->column_slot_begin(band, ahead));
      }
      const std::uint32_t j = view.rows[k];
      const std::size_t entry = couplings.column_begin(j) + cell_mirror[k];
      const std::size_t base = array_->column_slot_begin(band, j);
      const std::size_t present = array_->column_slot_src(band, j).size();
      double* block = state_.data() + stride * base;
      move_plane(block, squares ? block + 2 * present : nullptr, base,
                 present, plane_slots_[band * n + j],
                 magnitudes[entry] < 0 ? 1u : 0u, mults + entry * bits, bits,
                 s, grid, inv_grid);
    }
  }
}

AnalogCrossbarEngine::UnitInvariants AnalogCrossbarEngine::unit_invariants(
    const AnnealSignal& signal) {
  if (signal.vbg != cached_vbg_) {
    cached_i_on_ = array_->on_current(signal.vbg);
    cached_vbg_ = signal.vbg;
  }
  UnitInvariants inv;
  inv.i_on = cached_i_on_;
  inv.read_noise_rel = array_->variation_params().read_noise_rel;
  inv.track_sq = inv.read_noise_rel > 0.0;
  inv.sigma_adc = adc_.noise_sigma_current();
  inv.adc_variance = inv.sigma_adc * inv.sigma_adc;
  inv.bits = static_cast<std::size_t>(array_->couplings().bits());
  inv.square_grid = array_->square_grid();
  inv.inv_square_grid = 1.0 / inv.square_grid;
  return inv;
}

FECIM_ALWAYS_INLINE inline void AnalogCrossbarEngine::assemble_unit(
    const UnitInvariants& inv, const ising::Spin* spins,
    std::span<const std::uint32_t> flips, std::size_t fi, std::size_t band,
    const ProgrammedArray::ColumnView& view,
    std::span<const std::uint8_t> src, std::size_t pos) {
  const std::uint32_t j = flips[fi];
  const std::size_t bits = inv.bits;
  const std::size_t present = src.size();
  const float* const mults = array_->multipliers().data();
  double* FECIM_RESTRICT sum = lanes_.sum() + pos;
  double* FECIM_RESTRICT sq = lanes_.sq() + pos;
  if (state_live_) {
    // Incremental lanes: the +1 pass reads the run's +1-bank sums, the -1
    // pass the slot totals minus them, and each other flipped row with a
    // cell in the unit then leaves its bank.  Every value is an exact
    // subset sum of the segment's cells (the array proved it at program
    // time), so the lanes equal the sweep's bit for bit.
    const double* FECIM_RESTRICT plus =
        state_.data() + state_stride_ * array_->column_slot_begin(band, j);
    const double* FECIM_RESTRICT total = plus + present;
    const double* FECIM_RESTRICT plus_sq = plus + 2 * present;
    const double* FECIM_RESTRICT total_sq = plus + 3 * present;
    for (std::size_t i = 0; i < present; ++i) {
      sum[i] = plus[i];
      sum[present + i] = total[i] - plus[i];
    }
    if (inv.track_sq)
      for (std::size_t i = 0; i < present; ++i) {
        sq[i] = plus_sq[i];
        sq[present + i] = total_sq[i] - plus_sq[i];
      }
    const auto& rows = array_->bands()[band];
    const std::size_t base = array_->column_slot_begin(band, j);
    const std::uint8_t plus_slots = plane_slots_[band * num_spins() + j];
    const std::uint32_t* cells =
        workspace_.pair_cell.data() + fi * flips.size();
    for (std::size_t other = 0; other < flips.size(); ++other) {
      const auto f = flips[other];
      if (other == fi || f < rows.row_begin || f >= rows.row_end) continue;
      const std::uint32_t k = cells[other];
      if (k == kNoCell) continue;
      const std::size_t lane0 = spins[f] > 0 ? 0 : present;
      move_plane(sum + lane0, inv.track_sq ? sq + lane0 : nullptr, base,
                 present, plus_slots, view.magnitudes[k] < 0 ? 1u : 0u,
                 mults + (view.first_entry + k) * bits, bits, -1.0,
                 inv.square_grid, inv.inv_square_grid);
    }
  } else {
    // Sweep lanes: the unit's cells accumulated per bank, then a gather of
    // the present slots into [pass][slot] lanes (squared sums leave grid
    // units here, exactly).  Cells of flipped rows and of the other spin
    // bank only ever contributed exact +0.0 terms to the historical
    // select-and-multiply form, so skipping them outright leaves every
    // (nonnegative) accumulator bit-identical to the filtered per-segment
    // walk of the reference kernel.
    SweepScratch& sc = scratch_;
    accumulate_banks(view, array_->column_band_cells(band, j), spins,
                     workspace_.flip_mask.data(), mults, bits, inv.track_sq,
                     inv.inv_square_grid, sc.nsum, sc.nsq);
    const std::size_t slots = 2 * bits;
    for (std::size_t i = 0; i < present; ++i) {
      sum[i] = sc.nsum[src[i]];
      sum[present + i] = sc.nsum[slots + src[i]];
    }
    if (inv.track_sq)
      for (std::size_t i = 0; i < present; ++i) {
        sq[i] = sc.nsq[src[i]] * inv.square_grid;
        sq[present + i] = sc.nsq[slots + src[i]] * inv.square_grid;
      }
  }
  if (array_->num_bands() == 1) return;
  // A tiled read converts every band's lanes in one kernel call at unit
  // scale: each unit applies its band's factors here, forming the exact
  // products the kernel would (and 1.0 * x == x in the kernel).
  const BandScale scale =
      band_scale(inv.i_on, inv.read_noise_rel, band_attenuation_[band]);
  for (std::size_t i = 0; i < 2 * present; ++i)
    sum[i] = scale.current * sum[i];
  if (inv.track_sq)
    for (std::size_t i = 0; i < 2 * present; ++i)
      sq[i] = scale.noise_var * sq[i];
}

void AnalogCrossbarEngine::convert(const UnitInvariants& inv,
                                   std::size_t count) {
  const double* z = window_draws(count);
  // One band scales in the kernel; tiled units were scaled at assembly.
  const BandScale scale =
      array_->num_bands() == 1
          ? band_scale(inv.i_on, inv.read_noise_rel, band_attenuation_[0])
          : BandScale{};
  LaneBuffer& l = lanes_;
  if (inv.track_sq)
    convert_lanes<true>(l.sum(), l.sq(), z, l.code(), count, scale.current,
                        scale.noise_var, inv.adc_variance, inv.sigma_adc,
                        adc_);
  else
    convert_lanes<false>(l.sum(), l.sq(), z, l.code(), count, scale.current,
                         scale.noise_var, inv.adc_variance, inv.sigma_adc,
                         adc_);
}

void AnalogCrossbarEngine::locate_pair_cells(
    std::span<const std::uint32_t> flips, std::size_t bits) {
  auto& ws = workspace_;
  const std::size_t count = flips.size();
  if (ws.pair_cell.size() < count * count) ws.pair_cell.resize(count * count);
  const std::uint16_t* const mirror = array_->mirror_offsets().data();
  const float* const mults = array_->multipliers().data();
  for (std::size_t a = 0; a < count; ++a) {
    const auto& column_a = ws.flip_view[a];
    for (std::size_t b = a + 1; b < count; ++b) {
      // Row flips[b] in column flips[a]; its mirror is row flips[a] in
      // column flips[b], which the symmetric pattern guarantees.
      const std::size_t k = find_cell(column_a.rows, flips[b]);
      if (k == column_a.rows.size()) {
        ws.pair_cell[a * count + b] = kNoCell;
        ws.pair_cell[b * count + a] = kNoCell;
        continue;
      }
      const std::uint32_t mirrored = mirror[column_a.first_entry + k];
      ws.pair_cell[a * count + b] = static_cast<std::uint32_t>(k);
      ws.pair_cell[b * count + a] = mirrored;
      // Both cells' multiplier rows are scattered over the array; the
      // assembly subtracts them after the lane copies.
      __builtin_prefetch(mults + (column_a.first_entry + k) * bits);
      __builtin_prefetch(mults +
                         (ws.flip_view[b].first_entry + mirrored) * bits);
    }
  }
}

EincResult AnalogCrossbarEngine::evaluate(std::span<const ising::Spin> spins,
                                          const ising::FlipSet& flips,
                                          const AnnealSignal& signal) {
  FECIM_EXPECTS(!flips.empty());
  const auto& mapping = array_->mapping();
  FECIM_EXPECTS(spins.size() == mapping.num_spins());

  const UnitInvariants inv = unit_invariants(signal);
  const std::size_t num_bands = array_->num_bands();

  EincResult result;
  EngineTrace& trace = result.trace;
  trace.crossbar_passes = 4;
  trace.tile_ir_attenuation = band_attenuation_[0];

  auto& ws = workspace_;
  if (incremental_ && !state_live_) build_incremental_state(spins);
  // The incremental readout moves each flipped row out of its bank once.
  mark_flips(flips, incremental_);

  // Prelude: ledger accounting and the call's lane count.
  const std::size_t flip_count = flips.size();
  if (ws.flip_view.size() < flip_count) {
    ws.flip_view.resize(flip_count);
    ws.flip_q.resize(flip_count);
  }
  lanes_.reserve(flip_count * max_column_lanes_);
  std::size_t lanes = 0;
  for (std::size_t fi = 0; fi < flip_count; ++fi) {
    const auto j = flips[fi];
    const auto view = array_->column(j);
    ws.flip_view[fi] = view;
    // The sweep reads every cell of the column: its rows, magnitudes and
    // multiplier rows are contiguous, so start loading them all before the
    // first unit waits on them.
    if (!state_live_) {
      prefetch_bytes(view.rows.data(), view.rows.size_bytes());
      prefetch_bytes(view.magnitudes.data(), view.magnitudes.size_bytes());
      prefetch_bytes(array_->multipliers().data() + view.first_entry * inv.bits,
                     view.rows.size() * inv.bits * sizeof(float));
    }
    // sigma_c_j = -sigma_j (the flipped value); its sign selects the
    // DL-polarity pass this column participates in.
    ws.flip_q[fi] = -static_cast<double>(spins[j]);
    const std::uint32_t total_present =
        array_->column_total_present_segments(j);
    trace.tile_activations += array_->column_active_bands(j);
    trace.partial_sum_updates += 2 * static_cast<std::size_t>(
        total_present - array_->column_union_present_segments(j));
    trace.adc_conversions += 2 * static_cast<std::size_t>(total_present);
    lanes += 2 * static_cast<std::size_t>(total_present);
    // The units' bank sums sit at scattered offsets of the run state: start
    // loading them before the assembly reads them.
    if (state_live_)
      for (std::size_t band = 0; band < num_bands; ++band)
        if (array_->column_present_segments(band, j) != 0)
          __builtin_prefetch(state_.data() + state_stride_ *
                                                 array_->column_slot_begin(
                                                     band, j));
  }
  if (state_live_ && flip_count > 1) locate_pair_cells(flips, inv.bits);

  // Lane assembly in the canonical cursor order -- flip, then band, then
  // [pass][slot], the order of the reference kernel's draws -- then one
  // kernel call over the lanes and their draws.
  std::size_t pos = 0;
  for (std::size_t fi = 0; fi < flip_count; ++fi) {
    for (std::size_t band = 0; band < num_bands; ++band) {
      const auto src = array_->column_slot_src(band, flips[fi]);
      if (src.empty()) continue;  // tile stores nothing: no conversion
      assemble_unit(inv, spins.data(), flips, fi, band, ws.flip_view[fi], src,
                    pos);
      pos += 2 * src.size();
    }
  }
  for (const auto f : flips) ws.flip_mask[f] = 0;
  convert(inv, lanes);

  // Each unit's weighted code sum, signed by its column polarity q, into
  // its band.  Every weighted code and code sum is an exact integer well
  // under 2^53, so this grouping matches the historical per-unit int64
  // shift-and-add bit for bit.
  for (auto& acc : ws.band_acc) acc = 0.0;
  pos = 0;
  for (std::size_t fi = 0; fi < flip_count; ++fi) {
    for (std::size_t band = 0; band < num_bands; ++band) {
      const auto weight = array_->column_slot_weights(band, flips[fi]);
      if (weight.empty()) continue;
      ws.band_acc[band] += ws.flip_q[fi] * unit_code_sum(lanes_.code() + pos,
                                                         weight.data(),
                                                         weight.size());
      pos += 2 * weight.size();
    }
  }

  // Fixed digital calibration: codes carry I_on(vbg) * attenuation / LSB;
  // dividing by I_on(vbg_max) * attenuation re-expresses the result as
  // (sigma_r^T J_hat sigma_c) * [I_on(vbg) / I_on(vbg_max)], i.e. the raw
  // VMV times the hardware realization of f(T).  Each tile's code sum is
  // calibrated by that tile's own attenuation.
  double e_inc = 0.0;
  for (std::size_t band = 0; band < num_bands; ++band)
    e_inc += ws.band_acc[band] * band_to_einc_[band];
  result.e_inc = e_inc;
  const double f_hw = inv.i_on / i_on_max_;
  result.raw_vmv = f_hw > 0.0 ? result.e_inc / f_hw : 0.0;

  const auto n = static_cast<std::uint64_t>(mapping.num_spins());
  const auto t = static_cast<std::uint64_t>(flips.size());
  trace.mux_slot_cycles = 2 * mapping.slots_for_flips(flips);
  trace.row_drives = 2 * (n - t);
  trace.column_drives = 2 * t * static_cast<std::uint64_t>(inv.bits) *
                        static_cast<std::uint64_t>(mapping.planes());
  return result;
}

void AnalogCrossbarEngine::evaluate_columns(std::span<const ising::Spin> spins,
                                            const AnnealSignal& signal,
                                            std::span<double> raw_vmv,
                                            CostLedger& ledger) {
  const auto& mapping = array_->mapping();
  FECIM_EXPECTS(spins.size() == mapping.num_spins());
  FECIM_EXPECTS(raw_vmv.size() <= mapping.num_spins());
  if (incremental_ && !state_live_) build_incremental_state(spins);
  const UnitInvariants inv = unit_invariants(signal);
  const std::size_t num_bands = array_->num_bands();
  const double f_hw = inv.i_on / i_on_max_;
  auto& ws = workspace_;
  lanes_.reserve(std::max(kDrawWindow, max_column_lanes_));

  // The per-column events of evaluate(spins, {j}, signal), summed here and
  // merged once.
  const auto columns = static_cast<std::uint64_t>(raw_vmv.size());
  const auto n = static_cast<std::uint64_t>(mapping.num_spins());
  EngineTrace trace;
  trace.crossbar_passes = 4 * columns;
  trace.row_drives = 2 * (n - 1) * columns;
  trace.column_drives = 2 * static_cast<std::uint64_t>(inv.bits) *
                        static_cast<std::uint64_t>(mapping.planes()) * columns;
  // A single flipped column occupies one MUX slot (slots_for_flips).
  trace.mux_slot_cycles = 2 * columns;

  std::size_t first = 0;
  while (first < raw_vmv.size()) {
    // A block of whole columns that ends where the draw window does, so it
    // converts against its draws in place; a column that straddles the
    // window's end is a block of its own.
    if (noise_.next_conversion == window_end_) refill_window();
    const auto room =
        static_cast<std::size_t>(window_end_ - noise_.next_conversion);
    std::size_t end = first;
    std::size_t lanes = 0;
    do {
      lanes += 2 * static_cast<std::size_t>(
                       array_->column_total_present_segments(end));
      ++end;
    } while (end < raw_vmv.size() &&
             lanes + 2 * static_cast<std::size_t>(
                             array_->column_total_present_segments(end)) <=
                 room);

    // Assembly in cursor order (column, then band, then [pass][slot]).  The
    // sweep skips the flipped row (a diagonal cell); the bank sums subtract
    // nothing, since a single flipped row has no other cell in the unit.
    std::size_t pos = 0;
    for (std::size_t j = first; j < end; ++j) {
      const auto column = static_cast<std::uint32_t>(j);
      const std::span<const std::uint32_t> flip(&column, 1);
      const std::uint32_t total_present =
          array_->column_total_present_segments(j);
      trace.tile_activations += array_->column_active_bands(j);
      trace.partial_sum_updates += 2 * static_cast<std::size_t>(
          total_present - array_->column_union_present_segments(j));
      trace.adc_conversions += 2 * static_cast<std::size_t>(total_present);
      // Only the sweep reads the column's cells.
      const auto view = state_live_ ? ProgrammedArray::ColumnView{}
                                    : array_->column(j);
      ws.flip_mask[j] = 1;
      for (std::size_t band = 0; band < num_bands; ++band) {
        const auto src = array_->column_slot_src(band, j);
        if (src.empty()) continue;
        assemble_unit(inv, spins.data(), flip, 0, band, view, src, pos);
        pos += 2 * src.size();
      }
      ws.flip_mask[j] = 0;
    }
    convert(inv, lanes);

    // Each column's unit code sums, signed and calibrated as in evaluate().
    pos = 0;
    for (std::size_t j = first; j < end; ++j) {
      const double q = -static_cast<double>(spins[j]);
      double e_inc = 0.0;
      for (std::size_t band = 0; band < num_bands; ++band) {
        const auto weight = array_->column_slot_weights(band, j);
        if (weight.empty()) continue;
        e_inc += q *
                 unit_code_sum(lanes_.code() + pos, weight.data(),
                               weight.size()) *
                 band_to_einc_[band];
        pos += 2 * weight.size();
      }
      raw_vmv[j] = f_hw > 0.0 ? e_inc / f_hw : 0.0;
    }
    first = end;
  }
  merge_trace(ledger, trace);
}

}  // namespace fecim::crossbar
