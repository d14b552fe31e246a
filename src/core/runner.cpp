#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "core/run_journal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fecim::core {

double CampaignResult::best_objective(ObjectiveSense sense) const noexcept {
  if (objective.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sense == ObjectiveSense::kMaximize ? objective.max()
                                            : objective.min();
}

DecodedSolution failed_run_solution() noexcept {
  DecodedSolution solution;
  solution.objective = std::numeric_limits<double>::quiet_NaN();
  solution.feasible = false;
  solution.violations = 0.0;
  return solution;
}

namespace {

using Clock = CancellationToken::Clock;

Clock::duration to_clock_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

bool contains_run(const std::vector<std::size_t>& list, std::size_t run) {
  return std::find(list.begin(), list.end(), run) != list.end();
}

void record_failure(RunOutcome& slot) {
  slot.record.best_energy = 0.0;
  slot.record.solution = failed_run_solution();
  slot.record.best_spins.clear();
  slot.breakdown = cost::CostBreakdown{};
  slot.ledger = crossbar::CostLedger{};
}

}  // namespace

std::vector<std::uint64_t> derive_run_seeds(std::uint64_t base_seed,
                                            std::size_t runs) {
  util::Rng seeder(base_seed);
  std::vector<std::uint64_t> seeds(runs);
  for (auto& s : seeds) s = seeder();
  return seeds;
}

void validate_campaign(const ProblemInstance& problem,
                       const CampaignConfig& config) {
  FECIM_EXPECTS(config.runs > 0);
  FECIM_EXPECTS(std::isfinite(config.run_timeout_seconds) &&
                config.run_timeout_seconds >= 0.0);
  FECIM_EXPECTS(std::isfinite(config.time_limit_seconds) &&
                config.time_limit_seconds >= 0.0);
  FECIM_EXPECTS(!config.resume || !config.journal_path.empty());
  for (const auto run : config.inject.fail_runs)
    FECIM_EXPECTS(run < config.runs);
  for (const auto run : config.inject.hang_runs)
    FECIM_EXPECTS(run < config.runs);
  validate_problem(problem);
}

RunOutcome execute_campaign_run(
    const Annealer& annealer, const ProblemInstance& problem,
    const CampaignConfig& config, std::size_t run, std::uint64_t run_seed,
    const std::optional<Clock::time_point>& campaign_deadline) {
  RunOutcome slot;
  const std::size_t attempts = config.retries + 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    auto& record = slot.record;
    record.seed = run_attempt_seed(run_seed, static_cast<std::uint32_t>(attempt));
    record.attempt = static_cast<std::uint32_t>(attempt);

    // A run that cannot start before the campaign limit is cancelled
    // without executing (and without burning an attempt's wall time).
    if (campaign_deadline && Clock::now() >= *campaign_deadline) {
      record.status = RunStatus::kCancelled;
      record.error = "campaign time limit reached before run start";
      record_failure(slot);
      return slot;
    }

    CancellationToken token;
    if (campaign_deadline) token.set_campaign_deadline(*campaign_deadline);
    if (config.run_timeout_seconds > 0.0)
      token.set_run_deadline(Clock::now() +
                             to_clock_duration(config.run_timeout_seconds));
    // Injection hits attempt 0 only, so retry recovery is exercisable.  The
    // hang hook pre-expires the run deadline: the annealer's own
    // cooperative poll must trip, proving the in-loop path works.
    if (attempt == 0 && contains_run(config.inject.hang_runs, run))
      token.set_run_deadline(Clock::now());

    try {
      if (attempt == 0 && contains_run(config.inject.fail_runs, run))
        throw injected_fault("injected fault (test hook)");
      auto outcome = annealer.run(record.seed, token);
      record.status = RunStatus::kOk;
      record.error.clear();
      record.best_energy = outcome.best_energy;
      record.solution = problem.decode(outcome.best_spins);
      record.best_spins = std::move(outcome.best_spins);
      slot.breakdown = cost::compute_cost(outcome.ledger, config.costs,
                                          annealer.exp_unit());
      slot.ledger = outcome.ledger;
      return slot;
    } catch (const run_cancelled_error& error) {
      record.status = RunStatus::kCancelled;
      record.error = error.what();
    } catch (const run_timeout_error& error) {
      record.status = RunStatus::kTimedOut;
      record.error = error.what();
    } catch (const std::exception& error) {
      record.status = RunStatus::kFailed;
      record.error = error.what();
    } catch (...) {
      record.status = RunStatus::kFailed;
      record.error = "unknown error";
    }
    record_failure(slot);
    // Deadlines are final -- the run already consumed its time budget;
    // only plain failures are worth a reseeded retry.
    if (record.status != RunStatus::kFailed) return slot;
  }
  return slot;
}

CampaignResult reduce_campaign(const ProblemInstance& problem,
                               const CampaignConfig& config,
                               std::vector<RunOutcome>&& outcomes) {
  FECIM_EXPECTS(outcomes.size() == config.runs);
  CampaignResult result;
  result.runs = config.runs;

  // Single-threaded reduction in run order -- no merge mutex on the hot
  // path, and the aggregate statistics are schedule-independent.  Only
  // completed (kOk) runs feed the statistics; failed runs are visible in
  // per_run and in completed_rate but never skew the aggregates.
  std::size_t successes = 0;
  std::size_t feasible = 0;
  std::size_t completed = 0;
  result.best_run = config.runs;  // "none feasible" sentinel
  result.per_run.reserve(config.runs);
  for (auto& slot : outcomes) {
    const auto& solution = slot.record.solution;
    if (slot.record.status == RunStatus::kOk) {
      ++completed;
      if (solution.feasible) {
        ++feasible;
        result.objective.add(solution.objective);
        if (problem.reference_objective != 0.0)
          result.normalized.add(problem.normalized(solution.objective));
        const bool better =
            result.best_run == config.runs ||
            (problem.sense == ObjectiveSense::kMaximize
                 ? solution.objective >
                       result.per_run[result.best_run].solution.objective
                 : solution.objective <
                       result.per_run[result.best_run].solution.objective);
        if (better) result.best_run = result.per_run.size();
      }
      result.violations.add(solution.violations);
      result.energy.add(slot.breakdown.total_energy);
      result.time.add(slot.breakdown.total_time);
      result.adc_energy.add(slot.breakdown.adc_energy);
      result.exp_energy.add(slot.breakdown.exp_energy);
      result.total_ledger.merge(slot.ledger);
      if (problem.success(solution, config.success_threshold)) ++successes;
    }
    result.per_run.push_back(std::move(slot.record));
  }

  result.completed = completed;
  result.completed_rate =
      static_cast<double>(completed) / static_cast<double>(config.runs);
  result.success_rate =
      completed == 0 ? 0.0
                     : static_cast<double>(successes) /
                           static_cast<double>(completed);
  result.feasible_rate =
      completed == 0 ? 0.0
                     : static_cast<double>(feasible) /
                           static_cast<double>(completed);
  return result;
}

CampaignResult run_campaign(const Annealer& annealer,
                            const ProblemInstance& problem,
                            const CampaignConfig& config) {
  validate_campaign(problem, config);

  // Derive per-run seeds up front so the outcome is independent of the
  // thread schedule (and of which runs a resume still has to execute).
  const auto seeds = derive_run_seeds(config.base_seed, config.runs);

  std::vector<RunOutcome> outcomes(config.runs);
  std::vector<char> resumed(config.runs, 0);

  RunJournal journal;
  if (!config.journal_path.empty()) {
    const auto entries = journal.open(config.journal_path, config.resume,
                                      config.base_seed, config.runs);
    for (const auto& entry : entries) {
      // The journal stores the effective (seed, attempt) pair; it must
      // agree with this campaign's seed table or the file belongs to a
      // different configuration.
      FECIM_EXPECTS(entry.record.seed ==
                        run_attempt_seed(seeds[entry.run],
                                         entry.record.attempt) &&
                    "journal: seed mismatch (journal from another campaign?)");
      // An ok record's spins are the run's best configuration of the
      // annealed model; any other length belongs to another instance.
      FECIM_EXPECTS((entry.record.status != RunStatus::kOk ||
                     entry.record.best_spins.size() ==
                         annealer.model().num_spins()) &&
                    "journal: spin count does not match the model");
      auto& slot = outcomes[entry.run];
      slot.record = entry.record;
      slot.ledger = entry.ledger;
      // The breakdown is a pure function of the ledger, so recomputing it
      // here keeps the journal format free of derived quantities.
      if (entry.record.status == RunStatus::kOk)
        slot.breakdown = cost::compute_cost(entry.ledger, config.costs,
                                            annealer.exp_unit());
      resumed[entry.run] = 1;
    }
  }

  std::optional<Clock::time_point> campaign_deadline;
  if (config.time_limit_seconds > 0.0)
    campaign_deadline =
        Clock::now() + to_clock_duration(config.time_limit_seconds);

  // Replica-parallel execution: each run binds its own engine clone and
  // counter-keyed noise streams inside Annealer::run(seed), so noisy-analog
  // replicas no longer serialize on a shared RNG and need no locking.
  // execute_campaign_run() never throws -- failures terminate on the run's
  // record, not the campaign.
  util::parallel_for(
      config.runs,
      [&](std::size_t run) {
        if (resumed[run]) return;
        outcomes[run] = execute_campaign_run(annealer, problem, config, run,
                                             seeds[run], campaign_deadline);
        journal.append({run, outcomes[run].record, outcomes[run].ledger});
      },
      config.threads);

  return reduce_campaign(problem, config, std::move(outcomes));
}

}  // namespace fecim::core
