// Common annealer interface and run-result types.
//
// An Annealer is immutable after construction; run(seed) is const and
// thread-safe, so experiment campaigns execute runs in parallel.
#pragma once

#include <cstdint>
#include <vector>

#include "core/run_lifecycle.hpp"
#include "cost/components.hpp"
#include "crossbar/cost_ledger.hpp"
#include "ising/ising_model.hpp"

namespace fecim::core {

/// One recorded point of the annealing trajectory (energy vs iteration and
/// the control signal driving the schedule at that moment).
struct TrajectoryPoint {
  std::uint64_t iteration;
  double energy;       ///< exact Ising energy of the current configuration
  double best_energy;  ///< best energy observed so far
  double control;      ///< V_BG [V] for the in-situ annealer, T for baselines
};

/// Cumulative hardware-event snapshot, for energy/time-vs-iteration curves
/// (Fig. 8(b) / 9(b)).
struct LedgerSnapshot {
  std::uint64_t iteration;
  crossbar::CostLedger ledger;
};

struct TraceOptions {
  bool enabled = false;
  std::uint64_t stride = 1;  ///< record every `stride` iterations
};

struct AnnealResult {
  ising::SpinVector best_spins;
  double best_energy = 0.0;
  ising::SpinVector final_spins;
  double final_energy = 0.0;
  crossbar::CostLedger ledger;
  std::uint64_t accepted_moves = 0;
  std::uint64_t uphill_accepted = 0;
  std::vector<TrajectoryPoint> trajectory;
  std::vector<LedgerSnapshot> ledger_trajectory;
};

class Annealer {
 public:
  virtual ~Annealer() = default;

  /// Execute one independent annealing run.  Thread-safe.
  AnnealResult run(std::uint64_t seed) const {
    return run(seed, CancellationToken::none());
  }

  /// Execute one run under a cooperative cancellation token: the sweep loop
  /// polls the token every kCancellationCheckStride iterations (including
  /// iteration 0) and aborts by throwing run_timeout_error /
  /// run_cancelled_error.  An inactive token must cost no more than one
  /// predictable branch per stride, and an armed one little more (bounded
  /// by the "lifecycle" row of bench_hotpath).  Thread-safe.
  virtual AnnealResult run(std::uint64_t seed,
                           const CancellationToken& token) const = 0;

  /// Exponential-unit hardware this annealer carries (for cost translation).
  virtual cost::ExpUnit exp_unit() const noexcept = 0;

  virtual const ising::IsingModel& model() const noexcept = 0;
};

}  // namespace fecim::core
