// Abstract E_inc evaluation engine.
//
// The annealer hands the engine the current spins, the proposed flip set and
// the annealing control signal; the engine returns
//
//   e_inc ~ sigma_r^T J sigma_c * f(T)
//
// plus the hardware events the evaluation incurred.  Two implementations:
//   * IdealCrossbarEngine  -- exact digital arithmetic (and the baselines'
//     full-array cost accounting mode);
//   * AnalogCrossbarEngine -- DG FeFET currents, variation, ADC sampling,
//     shift & add, positive/negative pass separation.
//
// Stochastic readout contract: engines do NOT draw from the annealer's
// sequential RNG.  All readout noise comes from counter-keyed streams
// (util::NoiseStream) bound to the run via begin_run(run_seed) and indexed
// by a per-run conversion counter, so a noisy evaluation is a pure function
// of (spins, flips, signal, run_seed, conversions already performed).  See
// ReadoutNoise below and docs/noise-model.md for the key scheme.
#pragma once

#include <cmath>

#include "crossbar/cost_ledger.hpp"
#include "ising/flipset.hpp"
#include "ising/spin.hpp"
#include "util/rng.hpp"

namespace fecim::crossbar {

/// Annealing control signal for one evaluation.  `factor` is the ideal f(T)
/// value; `vbg` is the (quantized) back-gate voltage realizing it on the
/// device.  Engines use whichever representation their abstraction level
/// needs.
struct AnnealSignal {
  double factor = 1.0;
  double vbg = 0.7;
};

struct EincResult {
  double e_inc = 0.0;    ///< sigma_r^T J sigma_c * f(T), engine's estimate
  double raw_vmv = 0.0;  ///< engine's estimate of sigma_r^T J sigma_c alone
  EngineTrace trace;     ///< hardware events incurred
};

/// Per-run stochastic readout state: the counter-keyed conversion-noise
/// stream plus the index of the next ADC conversion.
///
/// Each conversion consumes exactly ONE standard-normal draw -- its total
/// input-referred noise.  C2C read noise (per-cell, aggregated in
/// quadrature over the live cells) and ADC input noise are independent
/// zero-mean Gaussians, so their sum is exactly Gaussian with
/// sigma_tot = sqrt(sigma_read^2 + sigma_adc^2); folding them into one draw
/// halves the stochastic work without changing the model's distribution
/// (readout_sigma below is the shared formula).
///
/// Conversion indices are assigned canonically -- flips in flip-set order,
/// row band (tile) ascending, row polarity +1 then -1, bit ascending,
/// + plane before - plane, counting only segments present in that band's
/// tile -- so any two implementations that walk the same flip sets over the
/// same tile grid assign the same index to the same physical conversion,
/// and the noise they see is bit-identical regardless of evaluation order,
/// batching, or which draws they elide.  A monolithic array has one band,
/// which reduces the walk to the historical flip/polarity/bit/plane order;
/// a >1-tile grid performs more conversions per column (one per present
/// (tile, physical column)), so noisy results are a pure function of
/// (seed, tile shape) and deliberately differ between tile shapes.
/// `next_conversion` advances by the number of conversions in each
/// evaluation, noise-free ones (sigma = 0) included.
struct ReadoutNoise {
  util::NoiseStream conversion;  ///< total input-referred (kReadoutNoise)
  std::uint64_t next_conversion = 0;

  static ReadoutNoise for_run(std::uint64_t run_seed) noexcept {
    return {util::NoiseStream(run_seed, util::stream_site::kReadoutNoise), 0};
  }
};

/// Total input-referred sigma of one conversion, in amps, from the two
/// noise VARIANCES: `read_variance` is the quadrature-aggregated C2C
/// read-noise variance of the sensed cells
/// ((read_noise_rel * i_on * attenuation)^2 * sum of squared multipliers),
/// `adc_variance` the square of the ADC's input-referred sigma
/// (SarAdc::noise_sigma_current()).  One sqrt covers both sources.  When
/// read noise is off entirely, callers use sigma_adc directly instead (the
/// exact round trip sqrt(sigma^2) is not guaranteed bitwise).  Shared by
/// the optimized engine and the reference kernel so the expression tree --
/// and therefore the result bits -- match exactly.
inline double readout_sigma(double read_variance,
                            double adc_variance) noexcept {
  return std::sqrt(read_variance + adc_variance);
}

class EincEngine {
 public:
  virtual ~EincEngine() = default;

  /// Bind the engine's stochastic state to a run.  Engines with keyed noise
  /// (the analog engine) re-derive their streams from `run_seed` and reset
  /// their conversion counter; deterministic engines ignore it (default
  /// no-op).  Annealers call this once at the top of run(seed); an engine
  /// that never sees begin_run behaves as run_seed = 0.
  virtual void begin_run(std::uint64_t run_seed) { (void)run_seed; }

  /// Evaluate E_inc for the proposed (not yet applied) `flips`.  Stochastic
  /// engines advance their internal ReadoutNoise cursor; there is no other
  /// mutable coupling between calls, and no draw is taken from any shared
  /// sequential RNG.
  virtual EincResult evaluate(std::span<const ising::Spin> spins,
                              const ising::FlipSet& flips,
                              const AnnealSignal& signal) = 0;

  /// Full-field read: one single-flip readout per column j <
  /// raw_vmv.size(), in ascending j.  raw_vmv[j] and the events added to
  /// `ledger` equal what evaluate(spins, {j}, signal) and merge_trace give,
  /// bit for bit and with the same noise cursor; flipping column j of drive
  /// b senses raw_vmv[j] = -b_j (J b)_j.  This default is that loop;
  /// engines may batch it.
  virtual void evaluate_columns(std::span<const ising::Spin> spins,
                                const AnnealSignal& signal,
                                std::span<double> raw_vmv, CostLedger& ledger) {
    ising::FlipSet probe(1, 0);
    for (std::size_t j = 0; j < raw_vmv.size(); ++j) {
      probe[0] = static_cast<std::uint32_t>(j);
      const auto evaluation = evaluate(spins, probe, signal);
      merge_trace(ledger, evaluation.trace);
      raw_vmv[j] = evaluation.raw_vmv;
    }
  }

  /// Cache-coherence protocol: the annealer MUST report every flip set it
  /// actually applies, after applying it to the spin vector, through this
  /// hook (`spins_after` already holds the flipped values).  Engines
  /// carrying spin-dependent caches -- the ideal engine's local-field cache,
  /// the analog engine's incremental bank sums -- resynchronize here in
  /// O(sum degree) (times the bit width for the bank sums); skipping a
  /// report, or reporting a set that was not applied, silently corrupts
  /// every later evaluation.  Simulated bifurcation reports its drive
  /// vector's per-step sign changes the same way.  Wholesale spin rewrites
  /// (restarts) require a fresh engine or cache reset instead.  Default
  /// no-op for stateless engines.
  virtual void on_flips_applied(std::span<const ising::Spin> spins_after,
                                const ising::FlipSet& flips) {
    (void)spins_after;
    (void)flips;
  }

  virtual std::size_t num_spins() const noexcept = 0;
};

}  // namespace fecim::crossbar
