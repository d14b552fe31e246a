#include "crossbar/analog_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace fecim::crossbar {

namespace {

/// Draws one keyed fill of evaluate_columns() covers at most, unless a
/// single column needs more: bounds its draw buffer independently of n.
/// 256 and 4,096 timed the same on simulated bifurcation.
constexpr std::size_t kColumnDrawBlock = 1024;

circuit::SarAdcParams resolve_adc_params(const AnalogEngineConfig& config,
                                         const ProgrammedArray& array) {
  circuit::SarAdcParams params = config.adc;
  const double i_on_max =
      array.on_current(array.device_params().vbg_max);
  params.full_scale_current = i_on_max * config.full_scale_cells;
  return params;
}

/// All conversions of one (flip, band) unit from its 2 * present lanes,
/// laid out [pass][slot] in cursor order -- the +1 row-polarity pass first,
/// each pass over the unit's present slots (bit ascending, + plane before
/// -).  That is also the order of the unit's batched keyed draws, so sums,
/// squared sums and draws are all read contiguously, and `wgt` holds each
/// slot's signed digital weight plane_sign * 2^bit.  Returns
/// sum_slot wgt * code(+1 pass) - sum_slot wgt * code(-1 pass).  Every
/// term is an exact integer-valued double (|code| < 2^13 scaled by
/// 2^bit < 2^16), so the four independent lane accumulators reduced
/// pairwise equal the historical int64 shift-and-add bit-for-bit.  Kept
/// `noinline` as a vectorization barrier: inlined into the unit loop,
/// GCC's induction-variable rewrite defeats the vectorization (same
/// failure mode as the ziggurat fill pass, see util/rng.cpp).
template <bool kTrackSq>
__attribute__((noinline)) double convert_unit(
    const double* FECIM_RESTRICT sum, const double* FECIM_RESTRICT sq,
    const double* FECIM_RESTRICT z, const double* FECIM_RESTRICT wgt,
    std::size_t present, double current_scale, double noise_var_scale,
    double adc_variance, double sigma_adc,
    const circuit::SarAdc& adc) noexcept {
  double pass_total[2];
  for (std::size_t pass = 0; pass < 2; ++pass) {
    const double* FECIM_RESTRICT s = sum + pass * present;
    const double* FECIM_RESTRICT q = sq + pass * present;
    const double* FECIM_RESTRICT zp = z + pass * present;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= present; i += 4) {
      for (std::size_t m = 0; m < 4; ++m) {
        // Same sigma expression tree as the reference kernel: readout_sigma
        // of the scaled squared sum, or the bare ADC sigma when read noise
        // is off.
        const double sigma =
            kTrackSq ? readout_sigma(noise_var_scale * q[i + m], adc_variance)
                     : sigma_adc;
        const double current = current_scale * s[i + m] + sigma * zp[i + m];
        acc[m] += wgt[i + m] * adc.convert_ideal_d(current);
      }
    }
    for (std::size_t m = 0; i < present; ++i, ++m) {
      const double sigma =
          kTrackSq ? readout_sigma(noise_var_scale * q[i], adc_variance)
                   : sigma_adc;
      const double current = current_scale * s[i] + sigma * zp[i];
      acc[m] += wgt[i] * adc.convert_ideal_d(current);
    }
    pass_total[pass] = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  }
  return pass_total[0] - pass_total[1];
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

/// Index of row `row` among column cells [begin, end) (rows ascend), or
/// `end` when the column stores no cell there.
std::uint32_t find_cell(std::span<const std::uint32_t> rows,
                        std::uint32_t begin, std::uint32_t end,
                        std::uint32_t row) noexcept {
  const auto* first = rows.data() + begin;
  const auto* last = rows.data() + end;
  const auto* it = std::lower_bound(first, last, row);
  return it != last && *it == row ? static_cast<std::uint32_t>(it - rows.data())
                                  : end;
}

/// Moves one cell into (kAdd) or out of the slot lanes `sum`/`sq` of its
/// (band, column): slot i, encoded src[i] = plane * bits + bit, gains or
/// loses the cell's multiplier of that bit (and its grid square unless `sq`
/// is null) when it lies in the cell's plane, whose encodings start at
/// `lo`.  On an array with supports_incremental_readout() every result is
/// an exact subset sum of the segment's cells, so moves commute.
template <bool kAdd>
void move_cell(double* FECIM_RESTRICT sum, double* FECIM_RESTRICT sq,
               std::span<const std::uint8_t> src,
               const float* FECIM_RESTRICT mults, std::uint32_t lo,
               std::uint32_t bits, double grid, double inv_grid) noexcept {
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::uint32_t b = src[i] - lo;
    if (b >= bits) continue;  // the other plane's slot
    const double m = mults[b];
    sum[i] = kAdd ? sum[i] + m : sum[i] - m;
    if (sq == nullptr) continue;
    const double m2 = grid_square(m, grid, inv_grid);
    sq[i] = kAdd ? sq[i] + m2 : sq[i] - m2;
  }
}

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
}

void AnalogCrossbarEngine::begin_run(std::uint64_t run_seed) {
  noise_ = ReadoutNoise::for_run(run_seed);
  state_live_ = false;
}

void AnalogCrossbarEngine::enable_incremental_readout() {
  if (!array_->supports_incremental_readout()) return;
  incremental_ = true;
  state_live_ = false;
  state_stride_ = array_->variation_params().read_noise_rel > 0.0 ? 4 : 2;
  state_.assign(state_stride_ * array_->num_slots(), 0.0);
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

void AnalogCrossbarEngine::on_flips_applied(
    std::span<const ising::Spin> spins_after, const ising::FlipSet& flips) {
  if (!state_live_) return;
  FECIM_EXPECTS(spins_after.size() == num_spins());
  // Each row moves to its new bank once: check the whole set before the
  // first move, so a rejected report leaves the state untouched.
  mark_flips(flips, true);
  for (const auto f : flips) workspace_.flip_mask[f] = 0;
  const auto& couplings = array_->couplings();
  const auto bits = static_cast<std::uint32_t>(couplings.bits());
  const auto magnitudes = couplings.magnitudes();
  const float* const mults = array_->multipliers().data();
  const std::uint16_t* const mirror = array_->mirror_offsets().data();
  const double grid = array_->square_grid();
  const double inv_grid = 1.0 / grid;
  const auto bands = array_->bands();
  for (const auto f : flips) {
    // Row f's cells sit in its band, one in each column j that column f
    // couples to (symmetric pattern); the mirror offsets locate them.
    std::size_t band = 0;
    while (f >= bands[band].row_end) ++band;
    const bool to_plus = spins_after[f] > 0;
    const auto view = array_->column(f);
    for (std::size_t k = 0; k < view.rows.size(); ++k) {
      const std::uint32_t j = view.rows[k];
      const std::size_t entry =
          couplings.column_begin(j) + mirror[view.first_entry + k];
      const auto src = array_->column_slot_src(band, j);
      double* block =
          state_.data() + state_stride_ * array_->column_slot_begin(band, j);
      double* sq = state_stride_ == 4 ? block + 2 * src.size() : nullptr;
      const std::uint32_t lo = (magnitudes[entry] < 0 ? 1u : 0u) * bits;
      if (to_plus)
        move_cell<true>(block, sq, src, mults + entry * bits, lo, bits, grid,
                        inv_grid);
      else
        move_cell<false>(block, sq, src, mults + entry * bits, lo, bits, grid,
                         inv_grid);
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

FECIM_ALWAYS_INLINE inline double AnalogCrossbarEngine::read_unit(
    const UnitInvariants& inv, const ising::Spin* spins,
    std::span<const std::uint32_t> flips, std::size_t fi, std::size_t band,
    const ProgrammedArray::ColumnView& view,
    std::span<const std::uint8_t> src, const double* z) {
  const std::uint32_t j = flips[fi];
  const std::size_t bits = inv.bits;
  const std::size_t present = src.size();
  const auto range = array_->column_band_cells(band, j);
  const float* const mults = array_->multipliers().data();
  BandScratch& sc = scratch_;
  if (state_live_) {
    // Incremental lanes: the +1 pass reads the run's +1-bank sums, the -1
    // pass the slot totals minus them, and each other flipped row with a
    // cell in the unit then leaves its bank.  Every value is an exact
    // subset sum of the segment's cells (the array proved it at program
    // time), so the lanes equal the sweep's bit for bit.
    const double* FECIM_RESTRICT plus =
        state_.data() + state_stride_ * array_->column_slot_begin(band, j);
    const double* FECIM_RESTRICT total = plus + present;
    for (std::size_t i = 0; i < present; ++i) {
      sc.lane_sum[i] = plus[i];
      sc.lane_sum[present + i] = total[i] - plus[i];
    }
    if (inv.track_sq) {
      const double* FECIM_RESTRICT plus_sq = plus + 2 * present;
      const double* FECIM_RESTRICT total_sq = plus + 3 * present;
      for (std::size_t i = 0; i < present; ++i) {
        sc.lane_sq[i] = plus_sq[i];
        sc.lane_sq[present + i] = total_sq[i] - plus_sq[i];
      }
    }
    const auto& rows = array_->bands()[band];
    for (std::size_t other = 0; other < flips.size(); ++other) {
      const auto f = flips[other];
      if (other == fi || f < rows.row_begin || f >= rows.row_end) continue;
      const std::uint32_t k = find_cell(view.rows, range.begin, range.end, f);
      if (k == range.end) continue;
      const std::size_t lane0 = spins[f] > 0 ? 0 : present;
      move_cell<false>(
          sc.lane_sum + lane0, inv.track_sq ? sc.lane_sq + lane0 : nullptr,
          src, mults + (view.first_entry + k) * bits,
          view.magnitudes[k] < 0 ? static_cast<std::uint32_t>(bits) : 0,
          static_cast<std::uint32_t>(bits), inv.square_grid,
          inv.inv_square_grid);
    }
  } else {
    // Sweep lanes: the unit's cells accumulated per bank, then a gather of
    // the present slots into [pass][slot] lanes (squared sums leave grid
    // units here, exactly).  Cells of flipped rows and of the other spin
    // bank only ever contributed exact +0.0 terms to the historical
    // select-and-multiply form, so skipping them outright leaves every
    // (nonnegative) accumulator bit-identical to the filtered per-segment
    // walk of the reference kernel.
    accumulate_banks(view, range, spins, workspace_.flip_mask.data(), mults,
                     bits, inv.track_sq, inv.inv_square_grid, sc.nsum,
                     sc.nsq);
    const std::size_t slots = 2 * bits;
    for (std::size_t i = 0; i < present; ++i) {
      sc.lane_sum[i] = sc.nsum[src[i]];
      sc.lane_sum[present + i] = sc.nsum[slots + src[i]];
    }
    if (inv.track_sq)
      for (std::size_t i = 0; i < present; ++i) {
        sc.lane_sq[i] = sc.nsq[src[i]] * inv.square_grid;
        sc.lane_sq[present + i] = sc.nsq[slots + src[i]] * inv.square_grid;
      }
  }
  // Association mirrors the per-cell form: (i_on * att) * sum and
  // ((rel * i_on) * att) * sqrt(sq_sum), keeping results bit-identical.
  const double att = band_attenuation_[band];
  const double current_scale = inv.i_on * att;
  const double noise_scale = (inv.read_noise_rel * inv.i_on) * att;
  const double noise_var_scale = noise_scale * noise_scale;
  const double* wgt = array_->column_slot_weights(band, j).data();
  return inv.track_sq
             ? convert_unit<true>(sc.lane_sum, sc.lane_sq, z, wgt, present,
                                  current_scale, noise_var_scale,
                                  inv.adc_variance, inv.sigma_adc, adc_)
             : convert_unit<false>(sc.lane_sum, sc.lane_sq, z, wgt, present,
                                   current_scale, noise_var_scale,
                                   inv.adc_variance, inv.sigma_adc, adc_);
}

EincResult AnalogCrossbarEngine::evaluate(std::span<const ising::Spin> spins,
                                          const ising::FlipSet& flips,
                                          const AnnealSignal& signal) {
  FECIM_EXPECTS(!flips.empty());
  const auto& mapping = array_->mapping();
  FECIM_EXPECTS(spins.size() == mapping.num_spins());

  const UnitInvariants inv = unit_invariants(signal);
  const auto bands = array_->bands();
  const std::size_t num_bands = bands.size();

  EincResult result;
  EngineTrace& trace = result.trace;
  trace.crossbar_passes = 4;
  trace.tile_ir_attenuation = band_attenuation_[0];

  auto& ws = workspace_;
  for (auto& acc : ws.band_acc) acc = 0.0;
  if (incremental_ && !state_live_) build_incremental_state(spins);
  // The incremental readout moves each flipped row out of its bank once.
  mark_flips(flips, incremental_);

  // Readout over independent (flip, band) units.
  //
  // Serial prelude: ledger accounting, the canonical conversion-index
  // layout (flip-major, then band, then polarity/bit/plane -- exactly the
  // cursor order of the reference kernel), and ONE widened ziggurat fill
  // covering every conversion of the evaluation.  Each keyed draw is a
  // pure function of its absolute conversion index, so one evaluation-wide
  // fill equals the historical per-(flip, band) fills element-wise, and
  // any regrouping of the units below sees identical noise.
  const std::size_t flip_count = flips.size();
  if (ws.conv_base.size() < flip_count * num_bands)
    ws.conv_base.resize(flip_count * num_bands);
  if (ws.flip_view.size() < flip_count) {
    ws.flip_view.resize(flip_count);
    ws.flip_q.resize(flip_count);
  }
  std::size_t total_conversions = 0;
  for (std::size_t fi = 0; fi < flip_count; ++fi) {
    const auto j = flips[fi];
    ws.flip_view[fi] = array_->column(j);
    // sigma_c_j = -sigma_j (the flipped value); its sign selects the
    // DL-polarity pass this column participates in.
    ws.flip_q[fi] = -static_cast<int>(spins[j]);
    const std::uint32_t total_present =
        array_->column_total_present_segments(j);
    trace.tile_activations += array_->column_active_bands(j);
    trace.partial_sum_updates += 2 * static_cast<std::size_t>(
        total_present - array_->column_union_present_segments(j));
    trace.adc_conversions += 2 * static_cast<std::size_t>(total_present);
    for (std::size_t band = 0; band < num_bands; ++band) {
      ws.conv_base[fi * num_bands + band] =
          static_cast<std::uint32_t>(total_conversions);
      total_conversions +=
          2 * static_cast<std::size_t>(
                  array_->column_present_segments(band, j));
    }
  }
  if (ws.z.size() < total_conversions) ws.z.resize(total_conversions);
  noise_.conversion.normal_fill(noise_.next_conversion,
                                {ws.z.data(), total_conversions});
  noise_.next_conversion += total_conversions;

  // Band-major walk over the units.  Every weighted-code term, unit sum
  // and band_acc partial is an exact integer well under 2^53, so any
  // association here matches the historical int64 shift-and-add
  // bit-for-bit.
  for (std::size_t band = 0; band < num_bands; ++band) {
    for (std::size_t fi = 0; fi < flip_count; ++fi) {
      const auto src = array_->column_slot_src(band, flips[fi]);
      if (src.empty()) continue;  // tile stores nothing: no conversion
      ws.band_acc[band] +=
          static_cast<double>(ws.flip_q[fi]) *
          read_unit(inv, spins.data(), flips, fi, band, ws.flip_view[fi], src,
                    ws.z.data() + ws.conv_base[fi * num_bands + band]);
    }
  }

  for (const auto f : flips) ws.flip_mask[f] = 0;

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

  // The per-column events of evaluate(spins, {j}, signal), summed here and
  // merged once.
  const auto columns = static_cast<std::uint64_t>(raw_vmv.size());
  const auto n = static_cast<std::uint64_t>(mapping.num_spins());
  EngineTrace trace;
  trace.crossbar_passes = 4 * columns;
  trace.row_drives = 2 * (n - 1) * columns;
  trace.column_drives = 2 * static_cast<std::uint64_t>(inv.bits) *
                        static_cast<std::uint64_t>(mapping.planes()) * columns;

  std::size_t j = 0;
  while (j < raw_vmv.size()) {
    // One keyed fill per block of whole columns, in cursor order (column,
    // then band, then [pass][slot]).  Draws are pure functions of their
    // absolute index, so the blocking is value-free (PERF.md invariant 7).
    std::size_t end = j;
    std::size_t draws = 0;
    do {
      draws += 2 * static_cast<std::size_t>(
                       array_->column_total_present_segments(end));
      ++end;
    } while (end < raw_vmv.size() &&
             draws + 2 * static_cast<std::size_t>(
                             array_->column_total_present_segments(end)) <=
                 kColumnDrawBlock);
    if (ws.z.size() < draws) ws.z.resize(draws);
    noise_.conversion.normal_fill(noise_.next_conversion,
                                  {ws.z.data(), draws});
    noise_.next_conversion += draws;

    const double* z = ws.z.data();
    for (; j < end; ++j) {
      const auto column = static_cast<std::uint32_t>(j);
      const std::span<const std::uint32_t> flip(&column, 1);
      const std::uint32_t total_present =
          array_->column_total_present_segments(j);
      trace.tile_activations += array_->column_active_bands(j);
      trace.partial_sum_updates += 2 * static_cast<std::size_t>(
          total_present - array_->column_union_present_segments(j));
      trace.adc_conversions += 2 * static_cast<std::size_t>(total_present);
      trace.mux_slot_cycles += 2 * mapping.slots_for_flips(flip);

      // The sweep skips the flipped row (a diagonal cell); the bank sums
      // subtract nothing, since a single flipped row has no other cell in
      // the unit.
      const auto view = array_->column(j);
      const auto q = static_cast<double>(-static_cast<int>(spins[j]));
      ws.flip_mask[j] = 1;
      for (auto& acc : ws.band_acc) acc = 0.0;
      for (std::size_t band = 0; band < num_bands; ++band) {
        const auto src = array_->column_slot_src(band, j);
        if (src.empty()) continue;
        ws.band_acc[band] +=
            q * read_unit(inv, spins.data(), flip, 0, band, view, src, z);
        z += 2 * src.size();
      }
      ws.flip_mask[j] = 0;

      double e_inc = 0.0;
      for (std::size_t band = 0; band < num_bands; ++band)
        e_inc += ws.band_acc[band] * band_to_einc_[band];
      raw_vmv[j] = f_hw > 0.0 ? e_inc / f_hw : 0.0;
    }
  }
  merge_trace(ledger, trace);
}

}  // namespace fecim::crossbar
