// Shared per-run scaffolding for every solver backend.
//
// Each Annealer::run() used to open with the same dozen lines -- seed the
// sequential RNG, draw (or copy) the initial spin configuration, pin the
// ancilla, compute the starting energy, reserve the trajectory buffers,
// latch the cancellation flag -- and close with the same AnnealResult
// assembly.  RunDriver owns exactly that infrastructure so the annealer
// subclasses contain only their dynamics (Metropolis proposals, fractional
// acceptance, simulated-bifurcation oscillator updates) and every backend
// picks up run features (warm starts, cancellation, tracing) uniformly.
//
// Bit-identity contract: for a randomly-initialized run the driver performs
// the historical operations in the historical order -- Rng(seed) construction
// followed immediately by ising::random_spins(n, rng) -- so annealers
// rebuilt on the driver reproduce their pre-refactor results exactly
// (pinned by the refactor-guard digests in tests/test_bifurcation.cpp).
// Warm starts copy the provided spins instead of drawing from the RNG; that
// is a new mode with no goldens to preserve.
#pragma once

#include "core/annealer.hpp"
#include "ising/ising_model.hpp"
#include "util/rng.hpp"

namespace fecim::core {

class RunDriver {
 public:
  struct Options {
    /// Iteration budget, used to size the trajectory reservations.
    std::size_t iterations = 0;
    /// Trace recording; a disabled trace makes record() a no-op.
    TraceOptions trace{};
    /// Warm start: copied verbatim (ancilla re-pinned) instead of drawing
    /// random spins.  Null = random initialization (the default).  Must
    /// match the model's spin count when set.
    const ising::SpinVector* initial_spins = nullptr;
  };

  /// Seeds the RNG, initializes spins (random or warm), pins the ancilla,
  /// computes the starting energy and best-so-far, reserves the trace
  /// buffers, and latches the amortized cancellation gate.
  RunDriver(const ising::IsingModel& model, std::uint64_t seed,
            const CancellationToken& token, const Options& options);

  // The dynamics loop owns these directly -- the driver is scaffolding, not
  // an abstraction boundary, and the hot loops stay allocation- and
  // indirection-free.
  util::Rng rng;
  ising::SpinVector spins;
  double energy = 0.0;
  AnnealResult result;

  /// Amortized cancellation poll: one predictable branch per iteration when
  /// the token is inactive, a clock read every kCancellationCheckStride
  /// iterations when it is (fires at iteration 0 too; PERF.md invariant 6).
  void poll(std::uint64_t iteration) const {
    if (check_cancellation_ &&
        (iteration & (kCancellationCheckStride - 1)) == 0)
      token_->raise_if_stopped();
  }

  /// Book one accepted move: spin-update ledger events plus the
  /// accepted/uphill counters.  The caller decides what "uphill" means for
  /// its dynamics (noisy E_inc estimate vs exact dE).
  void count_accept(std::size_t flips_applied, bool uphill) {
    result.ledger.spin_updates += flips_applied;
    ++result.accepted_moves;
    if (uphill) ++result.uphill_accepted;
  }

  /// Fold the current configuration into the best-so-far.
  void track_best() {
    if (energy < result.best_energy) {
      result.best_energy = energy;
      result.best_spins = spins;
    }
  }

  /// Record one trajectory + ledger-snapshot point when tracing is enabled
  /// and `iteration` lands on the stride.
  void record(std::uint64_t iteration, double control) {
    if (trace_.enabled && iteration % trace_.stride == 0) {
      result.trajectory.push_back(
          {iteration, energy, result.best_energy, control});
      result.ledger_trajectory.push_back({iteration, result.ledger});
    }
  }

  /// Assemble the final AnnealResult (moves the spin vector out; the driver
  /// is spent afterwards).
  AnnealResult finish() {
    result.final_spins = std::move(spins);
    result.final_energy = energy;
    return std::move(result);
  }

 private:
  const CancellationToken* token_;
  TraceOptions trace_;
  bool check_cancellation_ = false;
};

}  // namespace fecim::core
