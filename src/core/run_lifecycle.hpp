// Run lifecycle: the structured error taxonomy, per-run status, cooperative
// cancellation token, and deterministic retry reseeding the campaign runner
// is built on (see docs/robustness.md).
//
// A run terminates in exactly one of four states:
//
//   kOk        -- the annealer completed its iteration budget;
//   kFailed    -- the run threw (device fault, contract violation, injected
//                 fault); eligible for retry under (seed, attempt) reseeding;
//   kTimedOut  -- the per-run deadline expired mid-run; never retried (the
//                 deadline already consumed the run's time budget);
//   kCancelled -- the campaign-level time limit expired before or during the
//                 run; never retried and never journaled, so a later resume
//                 re-executes it.
//
// Cancellation is cooperative: annealer sweep loops poll the token every
// kCancellationCheckStride iterations (a power of two, so the poll gate is
// one mask + compare) and abort by throwing.  An inactive token (no deadline
// set) reduces the poll to a single predictable branch -- the hot path stays
// effectively zero-overhead, and the "lifecycle" row of bench_hotpath bounds
// an armed token's cost against it.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fecim::core {

/// Terminal state of one campaign run.
enum class RunStatus : std::uint8_t {
  kOk = 0,
  kFailed = 1,
  kTimedOut = 2,
  kCancelled = 3,
};

/// Stable lower-case name ("ok", "failed", "timed-out", "cancelled") --
/// used in reports, CSV rows, and the journal format.
const char* run_status_name(RunStatus status) noexcept;

/// Parse a run_status_name() string; throws contract_error on unknown names.
RunStatus parse_run_status(const std::string& name);

/// Root of the run-failure taxonomy.  Anything else escaping a run body
/// (std::exception, contract_error, ...) is recorded as kFailed.
class run_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The per-run deadline expired (recorded as kTimedOut).
class run_timeout_error : public run_error {
 public:
  using run_error::run_error;
};

/// The campaign-level time limit expired (recorded as kCancelled).
class run_cancelled_error : public run_error {
 public:
  using run_error::run_error;
};

/// Deterministic test-hook failure raised by the fault-injection harness
/// (CampaignConfig::inject); recorded as kFailed like any other error.
class injected_fault : public run_error {
 public:
  using run_error::run_error;
};

/// Sweep loops poll the cancellation token once per this many iterations.
/// Power of two so the gate compiles to `(it & (stride - 1)) == 0`; the
/// poll fires at iteration 0 too, so a pre-expired deadline trips even on
/// runs shorter than the stride.
inline constexpr std::uint64_t kCancellationCheckStride = 1024;

/// Cooperative stop signal threaded through Annealer::run().  Carries up to
/// two steady-clock deadlines -- per-run and campaign-wide -- fixed before
/// the run starts, so no shared mutable state is needed: workers only read.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;

  /// Shared never-expiring token (the default for plain run(seed) calls).
  static const CancellationToken& none() noexcept;

  void set_run_deadline(Clock::time_point deadline) noexcept {
    run_deadline_ = deadline;
    has_run_deadline_ = true;
  }
  void set_campaign_deadline(Clock::time_point deadline) noexcept {
    campaign_deadline_ = deadline;
    has_campaign_deadline_ = true;
  }

  /// True when any deadline is set.  Annealers gate their amortized poll on
  /// this so a token-free run costs one predictable branch per stride.
  bool active() const noexcept {
    return has_run_deadline_ || has_campaign_deadline_;
  }

  /// Current verdict: kCancelled when the campaign deadline has passed
  /// (dominates -- a run that would also have timed out is still reported
  /// as collateral of the campaign limit), kTimedOut when the run deadline
  /// has passed, kOk otherwise.
  RunStatus status() const noexcept {
    if (!active()) return RunStatus::kOk;
    const auto now = Clock::now();
    if (has_campaign_deadline_ && now >= campaign_deadline_)
      return RunStatus::kCancelled;
    if (has_run_deadline_ && now >= run_deadline_) return RunStatus::kTimedOut;
    return RunStatus::kOk;
  }

  /// Throw run_cancelled_error / run_timeout_error when a deadline passed.
  void raise_if_stopped() const;

 private:
  Clock::time_point run_deadline_{};
  Clock::time_point campaign_deadline_{};
  bool has_run_deadline_ = false;
  bool has_campaign_deadline_ = false;
};

/// Seed for retry attempt `attempt` of a run whose campaign-derived seed is
/// `seed`.  Attempt 0 returns `seed` unchanged -- an untroubled campaign is
/// bit-identical to one run without the retry machinery -- and later
/// attempts mix the attempt index through SplitMix64, so a retried run is
/// itself reproducible: re-running annealer.run(run_attempt_seed(s, a))
/// yields the retried record exactly.
std::uint64_t run_attempt_seed(std::uint64_t seed, std::uint32_t attempt);

}  // namespace fecim::core
