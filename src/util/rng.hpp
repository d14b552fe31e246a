// Deterministic pseudo-random number generation for the whole project.
//
// Two generator families, with distinct contracts:
//
//  * `Rng` -- a sequential xoshiro256** engine seeded through SplitMix64.
//    Algorithmic randomness (annealing move proposals, acceptance tests,
//    initial spins, instance generators) draws from it, so a run is exactly
//    reproducible from a single 64-bit seed.  Draws are order-dependent by
//    construction: the value of draw k depends on every draw before it.
//
//  * `NoiseStream` -- a stateless counter-based generator for *physical*
//    noise (device variation, read noise, ADC noise).  Each stream is keyed
//    by (run_seed, site_id) and each draw by an index, so the value of draw
//    (site, index) is derivable independently, in any order, on any thread.
//    This is what lets the optimized analog engine and the golden reference
//    kernel produce bit-identical noisy results without sharing a
//    sequential RNG, and lets samplers batch (see normal_fill).  See
//    docs/noise-model.md for the full key scheme and the contract.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace fecim::util {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** engine wrapped with the distribution helpers the project
/// actually needs.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Raw 64 random bits.
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n); n must be positive.  Unbiased (rejection).
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Bernoulli trial.
  bool bernoulli(double p) noexcept;

  /// Random spin value, -1 or +1 with equal probability: the value of
  /// bernoulli(0.5) ? 1 : -1 on the same draw, read from one bit --
  /// uniform01() < 0.5 holds exactly when bit 63 of the draw is clear.
  int spin() noexcept { return 1 - 2 * static_cast<int>(next() >> 63); }

  /// k distinct indices sampled uniformly from [0, n); k <= n.
  /// Uses Floyd's algorithm; result is unsorted.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n,
                                                        std::uint32_t k);

  /// Allocation-free variant for hot loops: clears `out` and fills it with
  /// the sample, reusing its capacity.  Identical RNG draw order and result
  /// as sample_without_replacement for the same engine state.
  void sample_without_replacement_into(std::uint32_t n, std::uint32_t k,
                                       std::vector<std::uint32_t>& out);

  /// Derive an independent stream for (e.g.) a worker thread or a run index.
  Rng split(std::uint64_t stream_tag) const noexcept;

 private:
  result_type next() noexcept;

  std::array<std::uint64_t, 4> state_{};
};

// ---------------------------------------------------------------------------
// Counter-keyed noise streams.
// ---------------------------------------------------------------------------

/// Well-known site ids for the noise streams the simulation draws from.  A
/// site identifies *which physical noise source* a stream models; the draw
/// index identifies *which event* within that source (cell index at
/// programming time, conversion index at readout time).  Keeping the ids in
/// one place documents the whole key space: a (run_seed, site_id, index)
/// triple globally identifies every stochastic value in a run.
namespace stream_site {
inline constexpr std::uint64_t kCellVth = 0x01;    ///< D2D V_TH offset, per cell
inline constexpr std::uint64_t kCellFault = 0x02;  ///< stuck-at roll, per cell
inline constexpr std::uint64_t kReadNoise = 0x03;  ///< C2C read noise, per read
inline constexpr std::uint64_t kAdcNoise = 0x04;   ///< ADC input noise, per conversion
/// Crossbar readout: ONE draw per ADC conversion carrying the conversion's
/// total input-referred sigma (C2C read noise aggregated in quadrature with
/// the ADC input noise -- exact, because independent zero-mean Gaussians sum
/// to a Gaussian).  The engines use this site; kReadNoise / kAdcNoise serve
/// the standalone component models.
inline constexpr std::uint64_t kReadoutNoise = 0x05;
/// Simulated-bifurcation drive dither: the ballistic SB backend binarizes
/// its continuous oscillator positions stochastically before driving them
/// onto the crossbar (sign(x) with probability (1 + x)/2), one draw per
/// (step, spin) indexed step * num_flippable + spin.  Counter-keyed like
/// every physical stream, so SB runs are order- and thread-independent.
inline constexpr std::uint64_t kSbDither = 0x06;
}  // namespace stream_site

/// Stateless counter-based noise generator (SplitMix64-style).
///
/// A stream is a pure function of (key, index): `normal(i)` returns the same
/// value no matter when, in what order, or on which thread it is called, and
/// never perturbs any other draw.  Rejection steps inside a draw iterate a
/// private sub-stream derived from (key, index), so even the variable-length
/// samplers (ziggurat wedges/tail) keep index i fully independent of index j.
///
/// The standard-normal sampler is a 128-layer ziggurat: ~1 counter hash plus
/// one table compare on the ~98.8% fast path, which is what unblocked the
/// noisy-analog hot path from the sequential Box-Muller sampler it replaced.
/// `normal_fill` batches draws of consecutive indices; the iterations are
/// independent, so the loop pipelines instead of serializing on RNG state.
class NoiseStream {
 public:
  /// Null stream (key 0); valid but only useful as a placeholder.
  NoiseStream() = default;

  /// Stream for one noise site of one run.  Different (run_seed, site_id)
  /// pairs give statistically independent streams.
  NoiseStream(std::uint64_t run_seed, std::uint64_t site_id) noexcept;

  /// Raw 64 random bits for draw `index`.
  std::uint64_t bits(std::uint64_t index) const noexcept;

  /// Uniform double in [0, 1) for draw `index`.
  double uniform01(std::uint64_t index) const noexcept;

  /// Standard normal draw for `index` (ziggurat; exact N(0,1), not an
  /// approximation -- tails included).
  double normal(std::uint64_t index) const noexcept;

  /// Normal with the given mean and standard deviation for `index`.
  double normal(std::uint64_t index, double mean, double stddev) const noexcept;

  /// Batched standard normals for indices [base_index, base_index + out.size()).
  /// Identical values to calling normal(base_index + i) element-wise.
  void normal_fill(std::uint64_t base_index, std::span<double> out) const noexcept;

  std::uint64_t key() const noexcept { return key_; }

 private:
  std::uint64_t key_ = 0;
};

}  // namespace fecim::util
