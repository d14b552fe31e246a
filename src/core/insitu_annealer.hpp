// The proposed CiM in-situ annealer (paper Sec. 3.4, Algorithm 1).
//
// Per iteration: sample a flip set F (|F| = t constant), derive
// sigma_c / sigma_r, evaluate E_inc = sigma_r^T J sigma_c * f(T) on the
// crossbar engine at the current back-gate voltage, apply the fractional
// acceptance rule, and update the solution register.  All analog
// computation happens inside the engine; only the solution update is
// digital.
#pragma once

#include <memory>

#include "core/annealer.hpp"
#include "core/schedule.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/mapping.hpp"
#include "device/dg_fefet.hpp"
#include "device/variation.hpp"
#include "ising/flipset.hpp"
#include "ising/local_field.hpp"

namespace fecim::core {

struct InSituConfig {
  std::size_t iterations = 1000;
  std::size_t flips_per_iteration = 2;  ///< t = |F|
  /// Digital comparator reference scaling applied to E_inc before the
  /// acceptance test (Alg. 1 line 10 compares against rand(0,1); scaling the
  /// reference is free in the digital domain).  The factor-4 default makes
  /// the compared quantity dE * f(T) rather than (dE/4) * f(T).
  double acceptance_gain = 4.0;
  /// How the t flip candidates are selected each iteration (Alg. 1 line 3
  /// just says "select t elements").
  ///  * kCluster (default): a random-walk-connected set on the coupling
  ///    graph (first spin uniform, each next spin a random neighbor of the
  ///    previous).  Joint flips of coupled spins act as cluster moves --
  ///    essential for domain-wall migration on grid-like instances; on
  ///    high-girth random graphs it behaves like independent picks.
  ///  * kRandom: t uniform distinct spins.
  ///  * kSweep: consecutive index windows (a counter in hardware);
  ///    guarantees full coverage every n/t iterations.
  enum class FlipSelection { kCluster, kRandom, kSweep };
  FlipSelection flip_selection = FlipSelection::kCluster;
  /// kCluster: probability that the next flip candidate is a neighbor of
  /// the previous one (otherwise a uniform pick).  Strictly less than 1 so
  /// every pair of spins remains jointly proposable -- with pure neighbor
  /// pairs the mutual coupling term of a flipped pair is invariant, which
  /// loses ergodicity on disconnected-pair graphs.
  double cluster_neighbor_bias = 0.75;
  /// Probability of proposing |F| - 1 flips instead of |F|.  A constant
  /// even |F| conserves the configuration's bit parity, making valid
  /// one-hot states unreachable from half of all starts; odd-size moves
  /// restore ergodicity.  Negative = auto (0.25 when the model carries an
  /// ancilla, i.e. came from a constrained QUBO; 0 for pure quadratic
  /// models so Max-Cut keeps the paper's exact |F| accounting).
  double parity_mix = -1.0;
  BgAnnealingSchedule::Config schedule{};  ///< total_iterations overridden
  crossbar::MappingConfig mapping{};
  /// Physical tile grid the crossbar is realized on (max rows/columns per
  /// tile, 0 = unbounded).  The all-zero default keeps the historical
  /// monolithic execution; a bounded shape makes both engines sweep the
  /// row bands of the grid with digital partial-sum accumulation (see
  /// docs/tiling.md).
  crossbar::TileShape tiles{};

  enum class EngineKind {
    kAnalog,  ///< DG FeFET currents + variation + ADC (default)
    kIdeal    ///< exact arithmetic, in-situ cost accounting (ablations)
  };
  EngineKind engine = EngineKind::kAnalog;

  device::DgFefetParams device{};
  device::VariationParams variation{};
  crossbar::AnalogEngineConfig analog{};
  std::uint64_t array_seed = 0x5eed;  ///< programming-time variation stream
  /// Digest-keyed programmed-array cache (crossbar/array_cache.hpp).  When
  /// set, the analog annealer obtains its array via
  /// ArrayCache::get_or_build() -- identical inputs across annealers (batch
  /// entries, serve-loop jobs) then share one programmed array.  Results
  /// are bit-identical with or without the cache (invariants 1 + 2; pinned
  /// by tests/test_array_cache.cpp).  Null = program privately (default).
  std::shared_ptr<crossbar::ArrayCache> array_cache;

  /// Warm start: when set, every run copies this configuration instead of
  /// drawing random spins (core/run_driver.hpp; must match the model's spin
  /// count, ancilla included).  Null = random initialization.
  std::shared_ptr<const ising::SpinVector> initial_spins;

  TraceOptions trace{};
};

class InSituCimAnnealer final : public Annealer {
 public:
  /// `model` must be pure quadratic (no fields) -- callers fold fields with
  /// IsingModel::with_ancilla() first.
  InSituCimAnnealer(std::shared_ptr<const ising::IsingModel> model,
                    InSituConfig config);

  using Annealer::run;
  AnnealResult run(std::uint64_t seed,
                   const CancellationToken& token) const override;

  cost::ExpUnit exp_unit() const noexcept override {
    return cost::ExpUnit::kNone;  // fractional factor realized in situ
  }
  std::string_view name() const noexcept override { return "this-work"; }
  const ising::IsingModel& model() const noexcept override { return *model_; }

  const BgAnnealingSchedule& schedule() const noexcept { return schedule_; }
  const crossbar::CrossbarMapping& mapping() const noexcept { return mapping_; }
  /// Programmed array (null when running the ideal engine).
  std::shared_ptr<const crossbar::ProgrammedArray> array() const noexcept {
    return array_;
  }

 private:
  /// `quantized` is the model's couplings at config.mapping.bits, built
  /// once by the public constructor: it sets the mapping's plane count and
  /// programs the analog engine's array.
  InSituCimAnnealer(std::shared_ptr<const ising::IsingModel> model,
                    InSituConfig config,
                    const crossbar::QuantizedCouplings& quantized);

  /// Per-run scratch, allocated once at the top of run() so the annealing
  /// inner loop performs zero heap allocations (pinned by the counting
  /// allocator test in tests/test_perf_equivalence.cpp).
  struct RunWorkspace {
    ising::FlipSet flips;                   ///< reused proposal buffer
    std::vector<std::uint8_t> member_mask;  ///< O(1) flip-set membership
    ising::LocalFieldCache field_cache;     ///< exact-energy bookkeeping
  };

  /// Connected flip set grown by a random walk on the coupling graph,
  /// written into ws.flips.  ws.member_mask provides O(1) duplicate checks;
  /// uniform re-draws are bounded, falling back to an exact uniform pick
  /// over the not-yet-chosen spins so dense flip sets (t close to the
  /// number of flippable spins) terminate deterministically.
  void cluster_flip_set(util::Rng& rng, RunWorkspace& ws) const;

  std::shared_ptr<const ising::IsingModel> model_;
  InSituConfig config_;
  BgAnnealingSchedule schedule_;
  crossbar::CrossbarMapping mapping_;
  std::shared_ptr<const crossbar::ProgrammedArray> array_;
};

}  // namespace fecim::core
