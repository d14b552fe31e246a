#include "crossbar/analog_engine.hpp"

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

/// One row-polarity conversion pass over the compacted present slots of a
/// (flip, band) unit: gather the slot's accumulated current (and squared
/// sum), apply its batched keyed draw, quantize branch-free, weight by the
/// slot's signed bit weight, and sum.  Terms are exact integer-valued
/// doubles (|code| < 2^13 scaled by 2^bit < 2^16), so the 4-lane
/// exact_integer_sum equals the historical sequential int64 shift-and-add
/// bit-for-bit.  Kept `noinline` as a vectorization barrier: inlined into
/// the per-band sweep, GCC's induction-variable rewrite defeats the
/// gather-based vectorization of the nsum/nsq lookups (same failure mode as
/// the ziggurat fill pass, see util/rng.cpp).
template <bool kTrackSq>
__attribute__((noinline)) double convert_pass(
    const double* FECIM_RESTRICT nsum, const double* FECIM_RESTRICT nsq,
    const std::uint8_t* FECIM_RESTRICT src, const double* FECIM_RESTRICT wgt,
    const double* FECIM_RESTRICT z, double* FECIM_RESTRICT terms,
    std::size_t count, double current_scale, double noise_var_scale,
    double adc_variance, double sigma_adc,
    const circuit::SarAdc& adc) noexcept {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t s = src[i];
    // Same sigma expression tree as the reference kernel: readout_sigma of
    // the scaled squared sum, or the bare ADC sigma when read noise is off.
    const double sigma =
        kTrackSq ? readout_sigma(noise_var_scale * nsq[s], adc_variance)
                 : sigma_adc;
    const double current = current_scale * nsum[s] + sigma * z[i];
    terms[i] = wgt[i] * adc.convert_ideal_d(current);
  }
  return util::exact_integer_sum(terms, count);
}

/// Both row-polarity conversion passes of a fully-present (flip, band) unit
/// in one loop.  When every (bit, plane) segment is present the conversion
/// lane order [pass][plane][bit] coincides with the packed scratch layout
/// [bank][plane][bit] (the pass selects its bank), so `nsum`/`nsq` are read
/// contiguously -- no gathers -- and the pass polarity rides in the
/// precomputed signed lane weights.  The signed weighted codes are exact
/// integer-valued doubles, so accumulating them into eight independent
/// vector-lane accumulators (reduced pairwise at the end) equals the
/// historical per-pass left-to-right sums -- and their int64 shift-and-add
/// ancestor -- bit-for-bit, while keeping the whole reduction inside the
/// vectorized loop (no terms store/reload).  `noinline` for the same IVOPTS
/// vectorization barrier as convert_pass.
template <bool kTrackSq>
__attribute__((noinline)) double convert_unit_dense(
    const double* FECIM_RESTRICT nsum, const double* FECIM_RESTRICT nsq,
    const double* FECIM_RESTRICT wgt, const double* FECIM_RESTRICT zt,
    std::size_t lanes, double current_scale, double noise_var_scale,
    double adc_variance, double sigma_adc,
    const circuit::SarAdc& adc) noexcept {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t l = 0;
  for (; l + 8 <= lanes; l += 8) {
    for (std::size_t m = 0; m < 8; ++m) {
      const std::size_t i = l + m;
      const double sigma =
          kTrackSq ? readout_sigma(noise_var_scale * nsq[i], adc_variance)
                   : sigma_adc;
      const double current = current_scale * nsum[i] + sigma * zt[i];
      acc[m] += wgt[i] * adc.convert_ideal_d(current);
    }
  }
  for (std::size_t m = 0; l < lanes; ++l, ++m) {
    const double sigma =
        kTrackSq ? readout_sigma(noise_var_scale * nsq[l], adc_variance)
                 : sigma_adc;
    const double current = current_scale * nsum[l] + sigma * zt[l];
    acc[m] += wgt[l] * adc.convert_ideal_d(current);
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
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
    if (config_.cached_ir_attenuation > 0.0) {
      attenuation_ = config_.cached_ir_attenuation;
    } else {
      const auto est = circuit::estimate_line_parasitics(
          array_->mapping().physical_rows(), i_on_max_,
          array_->device_params().read_vdl, config_.wire);
      attenuation_ = est.ir_attenuation;
    }
    if (config_.cached_band_ir_attenuation.size() == bands.size()) {
      band_attenuation_ = config_.cached_band_ir_attenuation;
    } else {
      // At most two distinct band heights under the balanced split (full
      // bands plus one remainder), so at most two extra MNA solves; a
      // monolithic array reuses the logical attenuation outright.
      for (std::size_t b = 0; b < bands.size(); ++b) {
        if (bands[b].rows() == array_->mapping().physical_rows()) {
          band_attenuation_[b] = attenuation_;
        } else if (b > 0 && bands[b].rows() == bands[b - 1].rows()) {
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
  // The deterministic readout needs no stochastic term anywhere in the
  // sensing chain, and walks the segment-class cache that only arrays
  // programmed without read noise carry.
  deterministic_readout_ =
      array_->variation_params().read_noise_rel <= 0.0 &&
      !(adc_.params().noise_lsb_rms > 0.0);
  FECIM_EXPECTS(!deterministic_readout_ || array_->has_class_cache());
  noise_ = ReadoutNoise::for_run(0);
  // Per-tile digital calibration factors of the stochastic path (see the
  // e_inc merge in evaluate()); constant per engine, so the per-evaluation
  // merge is a multiply instead of a divide per band.
  band_to_einc_.resize(bands.size());
  for (std::size_t b = 0; b < bands.size(); ++b)
    band_to_einc_[b] = array_->couplings().scale() * adc_.lsb_current() /
                       (i_on_max_ * band_attenuation_[b]);
  workspace_.flip_mask.assign(array_->mapping().num_spins(), 0);
  workspace_.band_acc.assign(bands.size(), 0.0);
  const auto bits = static_cast<std::size_t>(array_->couplings().bits());
  lane_weight_.resize(4 * bits);
  for (std::size_t pass = 0; pass < 2; ++pass)
    for (std::size_t plane = 0; plane < 2; ++plane)
      for (std::size_t b = 0; b < bits; ++b)
        lane_weight_[pass * 2 * bits + plane * bits + b] =
            (pass == 0 ? 1.0 : -1.0) * (plane == 0 ? 1.0 : -1.0) *
            static_cast<double>(std::uint32_t{1} << b);
}

void AnalogCrossbarEngine::begin_run(std::uint64_t run_seed) {
  noise_ = ReadoutNoise::for_run(run_seed);
}

EincResult AnalogCrossbarEngine::evaluate(std::span<const ising::Spin> spins,
                                          const ising::FlipSet& flips,
                                          const AnnealSignal& signal) {
  FECIM_EXPECTS(!flips.empty());
  const auto& mapping = array_->mapping();
  const auto& couplings = array_->couplings();
  FECIM_EXPECTS(spins.size() == mapping.num_spins());

  const int bits = couplings.bits();
  if (signal.vbg != cached_vbg_) {
    cached_i_on_ = array_->on_current(signal.vbg);
    cached_vbg_ = signal.vbg;
  }
  const double i_on = cached_i_on_;
  const double read_noise_rel = array_->variation_params().read_noise_rel;
  // Association mirrors the per-cell form: (i_on * att) * sum and
  // ((rel * i_on) * att) * sqrt(sq_sum), keeping results bit-identical.
  // Deterministic readout evaluates at the logical-array calibration point
  // (attenuation_); stochastic conversions use each band's own attenuation.
  const double current_scale = i_on * attenuation_;

  const auto bands = array_->bands();
  const std::size_t num_bands = bands.size();

  EincResult result;
  EngineTrace& trace = result.trace;
  trace.crossbar_passes = 4;
  trace.tile_ir_attenuation = band_attenuation_[0];

  // Digital accumulator of signed, bit-weighted ADC codes (deterministic
  // shared-conversion path; the stochastic path accumulates per band into
  // ws.band_acc for the per-tile calibration).
  double accumulator = 0.0;

  auto& ws = workspace_;
  for (auto& acc : ws.band_acc) acc = 0.0;
  // Validate before marking so a contract throw cannot leave stale bits in
  // the reusable mask (contract_error is catchable; a dirty mask would
  // silently corrupt every later evaluation).
  for (const auto f : flips) FECIM_EXPECTS(f < ws.flip_mask.size());
  for (const auto f : flips) ws.flip_mask[f] = 1;

  const std::size_t slots = static_cast<std::size_t>(bits) * 2;

  if (deterministic_readout_) {
    const auto cache_rows = array_->cache_rows();
    const auto cache_mults = array_->cache_multipliers();
    // One sweep over each distinct cell list of a (band, column) accumulates
    // both row-polarity passes into ws.sum (index 0 = +1 pass, 1 = -1): an
    // unflipped row contributes to exactly one polarity, and the
    // per-polarity addition order stays the column's cell order.
    // `base_spins`/`base_mask` point at the band's first row, so the
    // band-relative cached rows index them directly (a monolithic band
    // starts at row 0).
    const auto accumulate_classes =
        [&](std::span<const ProgrammedArray::SegmentClass> classes,
            const ising::Spin* base_spins, const std::uint8_t* base_mask) {
          for (std::size_t ci = 0; ci < classes.size(); ++ci) {
            const auto& cls = classes[ci];
            if (cls.all_unit) {
              // Branchless: spins are random +-1, so per-cell branches
              // mispredict half the time; counting live and positive cells
              // with masks keeps the loop vectorizable.
              std::uint32_t live = 0;
              std::uint32_t count_pos = 0;
              for (std::uint32_t k = cls.begin; k < cls.end; ++k) {
                const auto row = cache_rows[k];
                const std::uint32_t unflipped = base_mask[row] == 0 ? 1u : 0u;
                live += unflipped;
                count_pos += unflipped & (base_spins[row] > 0 ? 1u : 0u);
              }
              const std::uint32_t count_neg = live - count_pos;
              ws.sum[0][ci] = static_cast<double>(count_pos);
              ws.sum[1][ci] = static_cast<double>(count_neg);
            } else {
              double sum_pos = 0.0;
              double sum_neg = 0.0;
              for (std::uint32_t k = cls.begin; k < cls.end; ++k) {
                const auto row = cache_rows[k];
                if (base_mask[row]) continue;
                const double m = cache_mults[k];
                if (base_spins[row] > 0)
                  sum_pos += m;
                else
                  sum_neg += m;
              }
              ws.sum[0][ci] = sum_pos;
              ws.sum[1][ci] = sum_neg;
            }
          }
        };

    for (const auto j : flips) {
      // sigma_c_j = -sigma_j (the flipped value); its sign selects the
      // DL-polarity pass this column participates in.
      const int q = -static_cast<int>(spins[j]);

      const std::uint32_t total_present =
          array_->column_total_present_segments(j);
      const std::size_t column_conversions =
          2 * static_cast<std::size_t>(total_present);
      trace.tile_activations += array_->column_active_bands(j);
      trace.partial_sum_updates += 2 * static_cast<std::size_t>(
          total_present - array_->column_union_present_segments(j));
      // No stochastic term anywhere in the sensing chain: the partial
      // currents are exact functions of the programmed cells, so the
      // digital merge of the per-tile partial sums reconstructs the
      // logical-array conversion, and the engine evaluates the shared
      // quantizer once per logical segment (for a monolithic band: once
      // per segment class, fanning the code out through the precomputed
      // per-class net weight).  The ledger still counts one conversion per
      // (tile, physical column) sensed, and the noise cursor still
      // advances by that count so the indexing stays aligned with
      // implementations that convert per tile segment.
      if (num_bands == 1) {
        const auto classes = array_->column_classes(0, j);
        accumulate_classes(classes, spins.data(), ws.flip_mask.data());

        // Segments sharing a class see the same current, hence the same
        // code, so one conversion per class plus the precomputed per-class
        // net weight replaces the per-segment shift-and-add.  Codes and
        // weights are integers (< 2^53 in every partial sum), so this
        // association is bit-identical to the per-segment order.
        const auto weights = array_->column_class_weights(0, j);
        for (const int p : {+1, -1}) {  // row-polarity (FG) passes
          const int bank = p > 0 ? 0 : 1;
          double column_acc = 0.0;
          for (std::size_t ci = 0; ci < classes.size(); ++ci) {
            const std::uint32_t code =
                adc_.convert_ideal(current_scale * ws.sum[bank][ci]);
            column_acc += weights[ci] * static_cast<double>(code);
          }
          accumulator += static_cast<double>(p * q) * column_acc;
        }
      } else {
        // Multi-tile grid: per band, accumulate the band's class sums and
        // scatter them through the band's segment refs into the
        // per-logical-segment totals (exact for integer multiplier sums --
        // the "integer regrouping" the tiled equivalence suite pins), then
        // convert each logical segment once.
        std::uint32_t union_mask = 0;
        for (std::size_t b = 0; b < static_cast<std::size_t>(bits); ++b) {
          ws.det_sum[0][0][b] = ws.det_sum[0][1][b] = 0.0;
          ws.det_sum[1][0][b] = ws.det_sum[1][1][b] = 0.0;
        }
        for (std::size_t band = 0; band < num_bands; ++band) {
          if (array_->column_present_segments(band, j) == 0) continue;
          const auto row0 = bands[band].row_begin;
          accumulate_classes(array_->column_classes(band, j),
                             spins.data() + row0,
                             ws.flip_mask.data() + row0);
          const auto segments = array_->column_segments(band, j);
          for (std::size_t s = 0; s < slots; ++s) {
            if (!segments[s].present) continue;
            const std::size_t b = s >> 1;
            const std::size_t plane = s & 1;
            ws.det_sum[0][plane][b] += ws.sum[0][segments[s].cls];
            ws.det_sum[1][plane][b] += ws.sum[1][segments[s].cls];
            union_mask |= 1u << s;
          }
        }
        for (const int p : {+1, -1}) {  // row-polarity (FG) passes
          const int bank = p > 0 ? 0 : 1;
          std::int64_t pass_acc = 0;
          for (std::size_t s = 0; s < slots; ++s) {
            if (!((union_mask >> s) & 1u)) continue;
            const std::size_t b = s >> 1;
            const std::size_t plane = s & 1;
            const std::uint32_t code = adc_.convert_ideal(
                current_scale * ws.det_sum[bank][plane][b]);
            const auto shifted = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(code) << b);
            pass_acc += plane == 0 ? shifted : -shifted;
          }
          accumulator +=
              static_cast<double>(p * q) * static_cast<double>(pass_acc);
        }
      }
      trace.adc_conversions += column_conversions;
      noise_.next_conversion += column_conversions;
    }
  } else {
    const auto all_mults = array_->multipliers();
    // Stochastic readout sweep over independent (flip, band) units.
    //
    // Serial prelude: ledger accounting, the canonical conversion-index
    // layout (flip-major, then band, then polarity/bit/plane -- exactly the
    // cursor order of the reference kernel), and ONE widened ziggurat fill
    // covering every conversion of the evaluation.  Each keyed draw is a
    // pure function of its absolute conversion index, so one evaluation-wide
    // fill equals the historical per-(flip, band) fills element-wise, and
    // any regrouping of the sweep below sees identical noise.
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

    const bool track_sq = read_noise_rel > 0.0;
    const double sigma_adc = adc_.noise_sigma_current();
    const double adc_variance = sigma_adc * sigma_adc;

    // Hot state as raw pointers/locals: the sweep below reads them through
    // the lambda capture on every unit, and loading them out of the
    // workspace vectors once keeps the per-unit code free of repeated
    // data-pointer indirections (they are loop-invariant; the compiler
    // cannot hoist them itself past the scratch stores).
    const double* const z_data = ws.z.data();
    const std::uint32_t* const conv_base = ws.conv_base.data();
    double* const band_acc = ws.band_acc.data();
    const std::uint8_t* const flip_mask = ws.flip_mask.data();
    const ProgrammedArray::ColumnView* const flip_view = ws.flip_view.data();
    const int* const flip_q = ws.flip_q.data();
    BandScratch& sc = scratch_;
    const double* const batt = band_attenuation_.data();
    const double* const lane_weight = lane_weight_.data();
    const ising::Spin* const spin_data = spins.data();

    const std::size_t unit_lanes = 2 * slots;  // 4 * bits conversion lanes

    // Cell sweep of one (flip, band) unit into the unit scratch at
    // lane_base: bank-selecting per-cell walk over the band's contiguous
    // sub-range of the column's cells against the entry-major multiplier
    // storage.  The inner bit loop is branch-free and unit-stride (absent
    // bits store multiplier 0); cells of flipped rows and of the other spin
    // bank only ever contributed exact +0.0 terms to the historical
    // select-and-multiply form, so skipping them outright leaves every
    // (nonnegative) accumulator bit-identical to the filtered per-segment
    // walk of the reference kernel -- addition order per segment is the
    // column's cell order either way.  For dense units the unit's batched
    // draws are also de-interleaved from cursor order [pass][bit][plane]
    // into conversion lane order [pass][plane][bit] at the same lane_base.
    const auto sweep_cells = [&](std::size_t band, std::size_t fi,
                                 std::size_t lane_base,
                                 bool dense) FECIM_ALWAYS_INLINE {
      const auto j = flips[fi];
      const auto& view = flip_view[fi];
      const auto range = array_->column_band_cells(band, j);
      double* FECIM_RESTRICT nsum = sc.nsum + lane_base;
      double* FECIM_RESTRICT nsq = sc.nsq + lane_base;
      for (std::size_t i = 0; i < 2 * slots; ++i) nsum[i] = 0.0;
      if (track_sq)
        for (std::size_t i = 0; i < 2 * slots; ++i) nsq[i] = 0.0;
      for (std::size_t k = range.begin; k < range.end; ++k) {
        const auto row = view.rows[k];
        if (flip_mask[row] != 0) continue;
        const std::size_t bank = spin_data[row] > 0 ? 0 : 1;
        const std::size_t plane = view.magnitudes[k] < 0 ? 1 : 0;
        const float* FECIM_RESTRICT entry_mults =
            all_mults.data() +
            (view.first_entry + k) * static_cast<std::size_t>(bits);
        double* FECIM_RESTRICT sum =
            nsum + bank * slots + plane * static_cast<std::size_t>(bits);
        if (track_sq) {
          double* FECIM_RESTRICT sq =
              nsq + bank * slots + plane * static_cast<std::size_t>(bits);
          for (int b = 0; b < bits; ++b) {
            const double m = entry_mults[b];
            sum[b] += m;
            sq[b] += m * m;
          }
        } else {
          // ADC-noise-only regime (the default config): the squared sums
          // are never read, so skip half the sweep's arithmetic.
          for (int b = 0; b < bits; ++b) sum[b] += entry_mults[b];
        }
      }
      if (dense) {
        const double* z = z_data + conv_base[fi * num_bands + band];
        for (std::size_t half = 0; half < 2; ++half) {
          const double* FECIM_RESTRICT zp = z + half * slots;
          double* FECIM_RESTRICT ztp = sc.zt + lane_base + half * slots;
          FECIM_LOOP_IVDEP
          for (int b = 0; b < bits; ++b) {
            ztp[b] = zp[2 * b];
            ztp[bits + b] = zp[2 * b + 1];
          }
        }
      }
    };

    // One band end to end: walk the flips in order, sweeping each present
    // unit and converting it.  A DENSE unit (every (bit, plane) segment
    // present -- the common case for non-degenerate couplings) converts
    // both passes in one call: its conversion lane order coincides with the
    // packed scratch layout (the pass selects its bank), so nsum/nsq/zt are
    // read contiguously with no gathers, and the pass polarity rides in the
    // precomputed signed lane weights.  Every weighted-code term, pass sum
    // and band_acc partial is an exact integer well under 2^53, so any
    // association here matches the historical int64 shift-and-add
    // bit-for-bit.
    for (std::size_t band = 0; band < num_bands; ++band) {
      const double att_b = batt[band];
      const double current_scale_b = i_on * att_b;
      const double noise_scale_b = (read_noise_rel * i_on) * att_b;
      const double noise_var_scale = noise_scale_b * noise_scale_b;
      std::size_t fi = 0;
      while (fi < flip_count) {
        const auto j = flips[fi];
        const std::uint32_t band_present =
            array_->column_present_segments(band, j);
        if (band_present == 0) {  // tile stores nothing: no conversion
          ++fi;
          continue;
        }
        if (band_present == slots) {
          sweep_cells(band, fi, 0, true);
          const double both =
              track_sq ? convert_unit_dense<true>(
                             sc.nsum, sc.nsq, lane_weight, sc.zt, unit_lanes,
                             current_scale_b, noise_var_scale, adc_variance,
                             sigma_adc, adc_)
                       : convert_unit_dense<false>(
                             sc.nsum, sc.nsq, lane_weight, sc.zt, unit_lanes,
                             current_scale_b, noise_var_scale, adc_variance,
                             sigma_adc, adc_);
          band_acc[band] += static_cast<double>(flip_q[fi]) * both;
          ++fi;
          continue;
        }
        // Sparse unit: gather the present slots through the compacted
        // slot metadata, one pass at a time.
        sweep_cells(band, fi, 0, false);
        const int q = flip_q[fi];
        const double* z = z_data + conv_base[fi * num_bands + band];
        const auto src = array_->column_slot_src(band, j);
        const auto wgt = array_->column_slot_weights(band, j);
        for (const int p : {+1, -1}) {  // row-polarity (FG) passes
          const std::size_t bank = p > 0 ? 0 : 1;
          const double pass_acc =
              track_sq ? convert_pass<true>(sc.nsum + bank * slots,
                                            sc.nsq + bank * slots, src.data(),
                                            wgt.data(), z, sc.terms,
                                            band_present, current_scale_b,
                                            noise_var_scale, adc_variance,
                                            sigma_adc, adc_)
                       : convert_pass<false>(sc.nsum + bank * slots,
                                             sc.nsq + bank * slots, src.data(),
                                             wgt.data(), z, sc.terms,
                                             band_present, current_scale_b,
                                             noise_var_scale, adc_variance,
                                             sigma_adc, adc_);
          band_acc[band] += static_cast<double>(p * q) * pass_acc;
          z += band_present;
        }
        ++fi;
      }
    }
  }

  for (const auto f : flips) ws.flip_mask[f] = 0;

  // Fixed digital calibration: codes carry I_on(vbg) * attenuation / LSB;
  // dividing by I_on(vbg_max) * attenuation re-expresses the result as
  // (sigma_r^T J_hat sigma_c) * [I_on(vbg) / I_on(vbg_max)], i.e. the raw
  // VMV times the hardware realization of f(T).  The stochastic path
  // calibrates each tile's code sum by that tile's own attenuation; the
  // deterministic path divides the shared logical-array factor back out.
  if (deterministic_readout_) {
    const double to_einc =
        couplings.scale() * adc_.lsb_current() / (i_on_max_ * attenuation_);
    result.e_inc = accumulator * to_einc;
  } else {
    double e_inc = 0.0;
    for (std::size_t band = 0; band < num_bands; ++band)
      e_inc += ws.band_acc[band] * band_to_einc_[band];
    result.e_inc = e_inc;
  }
  const double f_hw = i_on / i_on_max_;
  result.raw_vmv = f_hw > 0.0 ? result.e_inc / f_hw : 0.0;

  const auto n = static_cast<std::uint64_t>(mapping.num_spins());
  const auto t = static_cast<std::uint64_t>(flips.size());
  trace.mux_slot_cycles = 2 * mapping.slots_for_flips(flips);
  trace.row_drives = 2 * (n - t);
  trace.column_drives =
      2 * t * static_cast<std::uint64_t>(bits) *
      static_cast<std::uint64_t>(mapping.planes());
  return result;
}

}  // namespace fecim::crossbar
