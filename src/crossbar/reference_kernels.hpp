// Golden reference implementations of the simulation hot paths, preserved
// from the pre-cache direct algorithms.
//
// The optimized kernels (AnalogCrossbarEngine over the per-band bit-plane
// column cache, IsingModel::incremental_vmv over the persistent flip bitmap)
// are required to be floating-point-identical to these, with readout noise
// drawn from the shared counter-keyed ReadoutNoise streams (same canonical
// tile-aware conversion indexing on both sides -- flips, row band ascending,
// polarity, bit, plane -- so results match bit-for-bit without any
// draw-order coupling); tests/test_perf_equivalence.cpp and
// tests/test_tiled_engine.cpp assert that contract, and the sweep and ideal
// rows of bench/bench_hotpath.cpp time the optimized paths against them.
// They are intentionally slow -- do not call them outside tests/benches.
#pragma once

#include <array>
#include <cmath>

#include "circuit/sar_adc.hpp"
#include "crossbar/engine.hpp"
#include "crossbar/programmed_array.hpp"
#include "ising/ising_model.hpp"
#include "util/assert.hpp"

namespace fecim::crossbar::reference {

/// Per-cell magnitude-decoding analog evaluation (the seed algorithm,
/// extended to the tile grid): re-derives bit-plane column structure per
/// call -- independently of the array's sweep metadata -- and scans the
/// flip set linearly per row.  `adc`, `band_attenuation` (per row band,
/// from AnalogCrossbarEngine::band_attenuations()) and `i_on_max` come from
/// the engine under test so both paths share one calibration; `noise` is
/// the run's counter-keyed readout cursor (engine side: begin_run /
/// readout_noise()), advanced by one index per present (band, segment)
/// conversion in the canonical order.
///
/// Contract encoded here (the engine mirrors it): one genuine conversion
/// -- one keyed draw, one quantization, per-tile calibration by that band's
/// attenuation -- per present (band, bit, plane) segment and polarity pass.
/// The read-noise sigma sums the cells' squared multipliers rounded onto
/// the array's grid (ProgrammedArray::squared_multiplier).  A noise-free
/// configuration (sigma = 0) converts the same segments without a draw.
inline EincResult analog_evaluate(const ProgrammedArray& array,
                                  const circuit::SarAdc& adc,
                                  std::span<const double> band_attenuation,
                                  double i_on_max,
                                  std::span<const ising::Spin> spins,
                                  const ising::FlipSet& flips,
                                  const AnnealSignal& signal,
                                  ReadoutNoise& noise) {
  FECIM_EXPECTS(!flips.empty());
  const auto& mapping = array.mapping();
  const auto& couplings = array.couplings();
  FECIM_EXPECTS(spins.size() == mapping.num_spins());
  const auto bands = array.bands();
  FECIM_EXPECTS(band_attenuation.size() == bands.size());

  const int bits = couplings.bits();
  const double i_on = array.on_current(signal.vbg);
  const double read_noise_rel = array.variation_params().read_noise_rel;

  EincResult result;
  EngineTrace& trace = result.trace;
  trace.crossbar_passes = 4;
  trace.tile_ir_attenuation = band_attenuation[0];

  std::vector<double> band_acc(bands.size(), 0.0);  // per tile

  auto is_flipped = [&flips](std::uint32_t row) {
    for (const auto f : flips)
      if (f == row) return true;
    return false;
  };

  std::array<std::array<double, 2>, 16> mult_sum{};
  std::array<std::array<double, 2>, 16> mult_sq_sum{};
  std::array<std::array<bool, 2>, 16> column_present{};

  for (const auto j : flips) {
    const int q = -static_cast<int>(spins[j]);
    const auto view = array.column(j);

    std::uint64_t total_present = 0;
    std::uint64_t active_bands = 0;

    for (std::size_t band = 0; band < bands.size(); ++band) {
      const std::uint32_t row_begin = bands[band].row_begin;
      const std::uint32_t row_end = bands[band].row_end;
      const double att_band = band_attenuation[band];

      for (auto& row : column_present) row = {false, false};
      bool any_present = false;
      for (std::size_t k = 0; k < view.rows.size(); ++k) {
        const auto row = view.rows[k];
        if (row < row_begin || row >= row_end) continue;
        const std::int32_t mag = view.magnitudes[k];
        const auto abs_mag = static_cast<std::uint32_t>(std::abs(mag));
        const int plane = mag < 0 ? 1 : 0;
        for (int b = 0; b < bits; ++b)
          if (abs_mag & (1u << b)) {
            column_present[static_cast<std::size_t>(b)]
                          [static_cast<std::size_t>(plane)] = true;
            any_present = true;
          }
      }
      if (!any_present) continue;  // this tile stores nothing of column j
      ++active_bands;

      for (const int p : {+1, -1}) {
        for (auto& row : mult_sum) row = {0.0, 0.0};
        for (auto& row : mult_sq_sum) row = {0.0, 0.0};

        for (std::size_t k = 0; k < view.rows.size(); ++k) {
          const auto i = view.rows[k];
          if (i < row_begin || i >= row_end) continue;
          if (static_cast<int>(spins[i]) != p || is_flipped(i)) continue;
          const std::int32_t mag = view.magnitudes[k];
          const auto abs_mag = static_cast<std::uint32_t>(std::abs(mag));
          const int plane = mag < 0 ? 1 : 0;
          const std::size_t entry = view.first_entry + k;
          for (int b = 0; b < bits; ++b) {
            if (!(abs_mag & (1u << b))) continue;
            const double m = array.bit_multiplier(entry, b);
            mult_sum[static_cast<std::size_t>(b)]
                    [static_cast<std::size_t>(plane)] += m;
            mult_sq_sum[static_cast<std::size_t>(b)]
                       [static_cast<std::size_t>(plane)] +=
                array.squared_multiplier(m);
          }
        }

        const std::size_t bank = p > 0 ? 0 : 1;
        for (int b = 0; b < bits; ++b) {
          for (int plane = 0; plane < 2; ++plane) {
            if (!column_present[static_cast<std::size_t>(b)]
                               [static_cast<std::size_t>(plane)])
              continue;
            if (bank == 0) ++total_present;  // count once per segment
            double current = i_on * att_band *
                             mult_sum[static_cast<std::size_t>(b)]
                                     [static_cast<std::size_t>(plane)];
            // One keyed draw per conversion, scaled by the total
            // input-referred sigma (read + ADC noise in quadrature); the
            // expression tree matches the engine's exactly.
            const double noise_scale = (read_noise_rel * i_on) * att_band;
            const double noise_var_scale = noise_scale * noise_scale;
            const double adc_variance =
                adc.noise_sigma_current() * adc.noise_sigma_current();
            const double sigma =
                read_noise_rel > 0.0
                    ? readout_sigma(
                          noise_var_scale *
                              mult_sq_sum[static_cast<std::size_t>(b)]
                                         [static_cast<std::size_t>(plane)],
                          adc_variance)
                    : adc.noise_sigma_current();
            if (sigma > 0.0)
              current +=
                  sigma * noise.conversion.normal(noise.next_conversion);
            const std::uint32_t code = adc.convert_ideal(current);
            ++noise.next_conversion;
            const double plane_sign = plane == 0 ? 1.0 : -1.0;
            band_acc[band] += static_cast<double>(p * q) * plane_sign *
                              static_cast<double>(1u << b) *
                              static_cast<double>(code);
            ++trace.adc_conversions;
          }
        }
      }
    }

    std::uint64_t union_count = 0;
    for (int b = 0; b < bits; ++b)
      for (int plane = 0; plane < 2; ++plane) {
        // Union presence over bands, re-derived from the magnitudes.
        bool present = false;
        for (std::size_t k = 0; k < view.rows.size() && !present; ++k) {
          const auto abs_mag =
              static_cast<std::uint32_t>(std::abs(view.magnitudes[k]));
          present = (abs_mag & (1u << b)) &&
                    ((view.magnitudes[k] < 0 ? 1 : 0) == plane);
        }
        if (present) ++union_count;
      }
    trace.partial_sum_updates += 2 * (total_present - union_count);
    trace.tile_activations += active_bands;
  }

  // Fixed digital calibration: each tile's code sum by that tile's own
  // attenuation.
  double e_inc = 0.0;
  for (std::size_t band = 0; band < bands.size(); ++band) {
    const double to_einc_band = couplings.scale() * adc.lsb_current() /
                                (i_on_max * band_attenuation[band]);
    e_inc += band_acc[band] * to_einc_band;
  }
  result.e_inc = e_inc;
  const double f_hw = i_on / i_on_max;
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

/// Seed incremental VMV: rebuilds (and zero-fills) an n-sized flip bitmap on
/// every call.  Arithmetic is identical to IsingModel::incremental_vmv.
inline double incremental_vmv(const ising::IsingModel& model,
                              std::span<const ising::Spin> spins,
                              std::span<const std::uint32_t> flips) {
  const std::size_t n = model.num_spins();
  FECIM_EXPECTS(spins.size() == n);
  std::vector<std::uint8_t> flipped(n, 0);
  for (const auto idx : flips) {
    FECIM_EXPECTS(idx < n);
    FECIM_EXPECTS(!flipped[idx]);
    flipped[idx] = 1;
  }
  const auto& j_matrix = model.couplings();
  double acc = 0.0;
  for (const auto i : flips) {
    const double sigma_c_i = -static_cast<double>(spins[i]);
    const auto cols = j_matrix.row_cols(i);
    const auto vals = j_matrix.row_values(i);
    double inner = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto j = cols[k];
      if (!flipped[j]) inner += vals[k] * static_cast<double>(spins[j]);
    }
    acc += sigma_c_i * inner;
  }
  return acc;
}

}  // namespace fecim::crossbar::reference
