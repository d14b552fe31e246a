// Fault-tolerant campaign execution (docs/robustness.md): run lifecycle
// statuses, deterministic fault injection, cooperative deadlines, retry
// reseeding, checkpoint/resume bit-identity, the journal's record codec and
// its rejection of corrupt records, and, through the fecim_solve CLI, its
// one job loop (batch isolation, failed rows, the job validator, failed
// campaigns in every mode, unmappable inputs) and every --annealer kind.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "core/annealer_factory.hpp"
#include "core/run_journal.hpp"
#include "core/run_lifecycle.hpp"
#include "core/runner.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "util/assert.hpp"

namespace {

using namespace fecim;

core::ProblemInstance test_problem(std::size_t nodes = 32) {
  return problems::make_maxcut_problem(
      "ft-" + std::to_string(nodes),
      problems::random_graph(nodes, 5.0, problems::WeightScheme::kUnit, 3),
      16, 3);
}

std::unique_ptr<core::Annealer> test_annealer(
    const core::ProblemInstance& problem, std::size_t iterations = 400) {
  core::StandardSetup setup;
  setup.iterations = iterations;
  return core::make_annealer(core::AnnealerKind::kThisWork, problem.model,
                             setup);
}

/// Bit-identical record comparison -- the determinism contract is exact
/// equality, never "near".
void expect_records_equal(const core::RunRecord& a, const core::RunRecord& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.attempt, b.attempt);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_spins, b.best_spins);
  if (a.status == core::RunStatus::kOk) {
    EXPECT_EQ(a.solution.objective, b.solution.objective);
  } else {
    EXPECT_TRUE(std::isnan(a.solution.objective));
    EXPECT_TRUE(std::isnan(b.solution.objective));
  }
  EXPECT_EQ(a.solution.feasible, b.solution.feasible);
  EXPECT_EQ(a.solution.violations, b.solution.violations);
}

void expect_results_equal(const core::CampaignResult& a,
                          const core::CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.best_run, b.best_run);
  EXPECT_EQ(a.completed_rate, b.completed_rate);
  EXPECT_EQ(a.feasible_rate, b.feasible_rate);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.objective.count(), b.objective.count());
  if (!a.objective.empty()) {
    EXPECT_EQ(a.objective.mean(), b.objective.mean());
    EXPECT_EQ(a.objective.min(), b.objective.min());
    EXPECT_EQ(a.objective.max(), b.objective.max());
  }
  EXPECT_EQ(a.energy.count(), b.energy.count());
  if (!a.energy.empty()) {
    EXPECT_EQ(a.energy.mean(), b.energy.mean());
  }
  if (!a.time.empty()) {
    EXPECT_EQ(a.time.mean(), b.time.mean());
  }
  EXPECT_EQ(a.total_ledger.iterations, b.total_ledger.iterations);
  EXPECT_EQ(a.total_ledger.adc_conversions, b.total_ledger.adc_conversions);
  EXPECT_EQ(a.total_ledger.spin_updates, b.total_ledger.spin_updates);
  EXPECT_EQ(a.total_ledger.row_drives, b.total_ledger.row_drives);
  ASSERT_EQ(a.per_run.size(), b.per_run.size());
  for (std::size_t run = 0; run < a.per_run.size(); ++run)
    expect_records_equal(a.per_run[run], b.per_run[run]);
}

// ---------------------------------------------------------------------------
// Lifecycle primitives
// ---------------------------------------------------------------------------

TEST(RunLifecycle, StatusNamesRoundTrip) {
  for (auto status :
       {core::RunStatus::kOk, core::RunStatus::kFailed,
        core::RunStatus::kTimedOut, core::RunStatus::kCancelled}) {
    EXPECT_EQ(core::parse_run_status(core::run_status_name(status)), status);
  }
  EXPECT_THROW(core::parse_run_status("exploded"), contract_error);
}

TEST(RunLifecycle, AttemptZeroSeedIsIdentity) {
  // Attempt 0 must return the campaign-derived seed verbatim: an untroubled
  // campaign with the retry machinery enabled is bit-identical to one
  // without it.
  EXPECT_EQ(core::run_attempt_seed(0, 0), 0u);
  EXPECT_EQ(core::run_attempt_seed(42, 0), 42u);
  EXPECT_EQ(core::run_attempt_seed(~0ull, 0), ~0ull);
}

TEST(RunLifecycle, RetrySeedsAreDistinctAndDeterministic) {
  const std::uint64_t seed = 12345;
  const auto a1 = core::run_attempt_seed(seed, 1);
  const auto a2 = core::run_attempt_seed(seed, 2);
  EXPECT_NE(a1, seed);
  EXPECT_NE(a2, seed);
  EXPECT_NE(a1, a2);
  EXPECT_EQ(a1, core::run_attempt_seed(seed, 1));  // pure function
  // Neighbouring base seeds must not collide under retry (the SplitMix64
  // mix decorrelates seed and attempt).
  EXPECT_NE(core::run_attempt_seed(seed + 1, 1), a1);
}

TEST(RunLifecycle, InactiveTokenNeverStops) {
  const auto& token = core::CancellationToken::none();
  EXPECT_FALSE(token.active());
  EXPECT_EQ(token.status(), core::RunStatus::kOk);
  EXPECT_NO_THROW(token.raise_if_stopped());
}

TEST(RunLifecycle, ExpiredRunDeadlineTimesOut) {
  core::CancellationToken token;
  token.set_run_deadline(core::CancellationToken::Clock::now() -
                         std::chrono::seconds(1));
  EXPECT_TRUE(token.active());
  EXPECT_EQ(token.status(), core::RunStatus::kTimedOut);
  EXPECT_THROW(token.raise_if_stopped(), core::run_timeout_error);
}

TEST(RunLifecycle, CampaignDeadlineDominatesRunDeadline) {
  // A run that would also have timed out is collateral of the campaign
  // limit; reporting it as kTimedOut would overstate per-run flakiness.
  core::CancellationToken token;
  const auto past =
      core::CancellationToken::Clock::now() - std::chrono::seconds(1);
  token.set_run_deadline(past);
  token.set_campaign_deadline(past);
  EXPECT_EQ(token.status(), core::RunStatus::kCancelled);
  EXPECT_THROW(token.raise_if_stopped(), core::run_cancelled_error);
}

// ---------------------------------------------------------------------------
// Graceful degradation under injected faults
// ---------------------------------------------------------------------------

TEST(FaultTolerance, InjectedFailureDegradesGracefully) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);

  core::CampaignConfig baseline;
  baseline.runs = 6;
  const auto clean = core::run_campaign(*annealer, problem, baseline);
  ASSERT_EQ(clean.completed, 6u);

  core::CampaignConfig faulty = baseline;
  faulty.inject.fail_runs = {2};
  const auto result = core::run_campaign(*annealer, problem, faulty);

  EXPECT_EQ(result.runs, 6u);
  EXPECT_EQ(result.completed, 5u);
  EXPECT_DOUBLE_EQ(result.completed_rate, 5.0 / 6.0);
  ASSERT_EQ(result.per_run.size(), 6u);

  const auto& failed = result.per_run[2];
  EXPECT_EQ(failed.status, core::RunStatus::kFailed);
  EXPECT_NE(failed.error.find("injected"), std::string::npos);
  EXPECT_TRUE(std::isnan(failed.solution.objective));
  EXPECT_FALSE(failed.solution.feasible);
  EXPECT_EQ(failed.best_energy, 0.0);
  EXPECT_TRUE(failed.best_spins.empty());

  // The surviving runs are bit-identical to the uninjected campaign: a
  // failure elsewhere must not perturb any other run's stream.
  for (std::size_t run : {0u, 1u, 3u, 4u, 5u})
    expect_records_equal(result.per_run[run], clean.per_run[run]);

  // Statistics cover completed runs only, and match recomputing them from
  // the surviving records.
  EXPECT_EQ(result.objective.count(), 5u);
  EXPECT_EQ(result.violations.count(), 5u);
  EXPECT_EQ(result.energy.count(), 5u);
  EXPECT_EQ(result.total_ledger.iterations,
            clean.total_ledger.iterations * 5 / 6);
}

TEST(FaultTolerance, FaultyCampaignIsThreadCountInvariant) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);

  core::CampaignConfig serial;
  serial.runs = 6;
  serial.threads = 1;
  serial.inject.fail_runs = {1, 4};
  core::CampaignConfig parallel = serial;
  parallel.threads = 4;

  const auto a = core::run_campaign(*annealer, problem, serial);
  const auto b = core::run_campaign(*annealer, problem, parallel);
  EXPECT_EQ(a.completed, 4u);
  expect_results_equal(a, b);
}

TEST(FaultTolerance, InjectedHangTripsRunDeadline) {
  // Hang injection pre-expires the run deadline, so the annealer's real
  // cooperative poll (not a test bypass) must abort the run.
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem, 5000);

  core::CampaignConfig config;
  config.runs = 3;
  config.run_timeout_seconds = 30.0;  // generous: only the hang should trip
  config.inject.hang_runs = {1};
  const auto result = core::run_campaign(*annealer, problem, config);

  EXPECT_EQ(result.completed, 2u);
  EXPECT_EQ(result.per_run[0].status, core::RunStatus::kOk);
  EXPECT_EQ(result.per_run[1].status, core::RunStatus::kTimedOut);
  EXPECT_EQ(result.per_run[2].status, core::RunStatus::kOk);
  EXPECT_NE(result.per_run[1].error.find("deadline"), std::string::npos);
  // Timeouts are final: the budget is consumed, so no retry happens even
  // when retries are enabled.
  core::CampaignConfig with_retry = config;
  with_retry.retries = 2;
  const auto retried = core::run_campaign(*annealer, problem, with_retry);
  EXPECT_EQ(retried.per_run[1].status, core::RunStatus::kTimedOut);
  EXPECT_EQ(retried.per_run[1].attempt, 0u);
}

TEST(FaultTolerance, ArmedDeadlineLeavesRunsBitIdentical) {
  // Deadlines that never fire arm the in-loop poll; the runs must match
  // their token-free twins bit for bit, for the noisy in-situ loop and for
  // simulated bifurcation.  Both budgets span more than one poll stride.
  const auto problem = test_problem();
  core::StandardSetup sb_setup;
  sb_setup.iterations = 1100;
  const auto insitu = test_annealer(problem, 3000);
  const auto sb = core::make_annealer(core::AnnealerKind::kSbBallistic,
                                      problem.model, sb_setup);

  core::CampaignConfig plain;
  plain.runs = 3;
  core::CampaignConfig armed = plain;
  armed.run_timeout_seconds = 3600.0;
  armed.time_limit_seconds = 3600.0;
  for (const core::Annealer* annealer : {insitu.get(), sb.get()}) {
    SCOPED_TRACE(annealer == sb.get() ? "sb-ballistic" : "this-work");
    const auto reference = core::run_campaign(*annealer, problem, plain);
    ASSERT_EQ(reference.completed, plain.runs);
    expect_results_equal(reference,
                         core::run_campaign(*annealer, problem, armed));
  }
}

TEST(FaultTolerance, CampaignTimeLimitCancelsEverything) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);

  core::CampaignConfig config;
  config.runs = 4;
  config.time_limit_seconds = 1e-9;  // expires before any run starts
  const auto result = core::run_campaign(*annealer, problem, config);

  EXPECT_EQ(result.completed, 0u);
  EXPECT_DOUBLE_EQ(result.completed_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.feasible_rate, 0.0);
  EXPECT_DOUBLE_EQ(result.success_rate, 0.0);
  EXPECT_EQ(result.best_run, result.per_run.size());
  for (const auto& record : result.per_run) {
    EXPECT_EQ(record.status, core::RunStatus::kCancelled);
    EXPECT_FALSE(record.error.empty());
  }
}

// ---------------------------------------------------------------------------
// Retry reseeding
// ---------------------------------------------------------------------------

TEST(FaultTolerance, RetryRecoversAndIsReproducible) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);

  core::CampaignConfig baseline;
  baseline.runs = 4;
  const auto clean = core::run_campaign(*annealer, problem, baseline);

  core::CampaignConfig faulty = baseline;
  faulty.inject.fail_runs = {2};
  faulty.retries = 1;
  const auto result = core::run_campaign(*annealer, problem, faulty);

  EXPECT_EQ(result.completed, 4u);
  const auto& retried = result.per_run[2];
  EXPECT_EQ(retried.status, core::RunStatus::kOk);
  EXPECT_EQ(retried.attempt, 1u);
  // The retried attempt runs under run_attempt_seed(base, 1), where `base`
  // is the campaign-derived seed the clean campaign recorded for run 2.
  const auto expected_seed = core::run_attempt_seed(clean.per_run[2].seed, 1);
  EXPECT_EQ(retried.seed, expected_seed);
  // Reproducible in isolation: a direct annealer call at that seed yields
  // the retried record exactly.
  const auto direct = annealer->run(expected_seed);
  EXPECT_EQ(retried.best_energy, direct.best_energy);
  EXPECT_EQ(retried.best_spins, direct.best_spins);

  // Untouched runs remain bit-identical to the clean campaign.
  for (std::size_t run : {0u, 1u, 3u})
    expect_records_equal(result.per_run[run], clean.per_run[run]);

  // Re-running the faulty campaign reproduces the retried record too: the
  // whole recovery path is deterministic.
  const auto again = core::run_campaign(*annealer, problem, faulty);
  expect_results_equal(result, again);
}

// ---------------------------------------------------------------------------
// Checkpoint journal + resume
// ---------------------------------------------------------------------------

std::string journal_path(const char* name) {
  return testing::TempDir() + "/fecim_" + name + ".journal";
}

TEST(FaultTolerance, ResumeAfterKillReproducesBitIdentically) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("kill");

  core::CampaignConfig config;
  config.runs = 6;
  config.journal_path = path;
  std::remove(path.c_str());
  const auto uninterrupted = core::run_campaign(*annealer, problem, config);

  // Simulate a kill: keep the header plus the first three journal lines and
  // a torn fragment of the fourth (the line the dying writer was emitting).
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 5u);  // header + 6 runs
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < 4; ++i) out << lines[i] << "\n";
  out << lines[4].substr(0, lines[4].size() / 2);  // torn, no newline
  out.close();

  core::CampaignConfig resume = config;
  resume.resume = true;
  const auto resumed = core::run_campaign(*annealer, problem, resume);
  expect_results_equal(uninterrupted, resumed);

  // The compacted-and-extended journal now supports a second, fully cached
  // resume with fault injection armed on every run: if any run actually
  // executed it would fail, so equality proves the journal alone fed the
  // result.
  core::CampaignConfig cached = resume;
  cached.inject.fail_runs = {0, 1, 2, 3, 4, 5};
  const auto from_cache = core::run_campaign(*annealer, problem, cached);
  expect_results_equal(uninterrupted, from_cache);
}

TEST(FaultTolerance, JournalPersistsFailedRunsAcrossResume) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("failed");

  core::CampaignConfig config;
  config.runs = 4;
  config.journal_path = path;
  config.inject.fail_runs = {1};
  std::remove(path.c_str());
  const auto first = core::run_campaign(*annealer, problem, config);
  ASSERT_EQ(first.per_run[1].status, core::RunStatus::kFailed);

  // Resume without injection: the failed record must come back from the
  // journal (message included), not get silently re-executed into success.
  core::CampaignConfig resume = config;
  resume.inject = {};
  resume.resume = true;
  const auto resumed = core::run_campaign(*annealer, problem, resume);
  expect_results_equal(first, resumed);
  EXPECT_EQ(resumed.per_run[1].status, core::RunStatus::kFailed);
  EXPECT_EQ(resumed.per_run[1].error, first.per_run[1].error);
}

TEST(FaultTolerance, ResumeRejectsMismatchedCampaign) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("mismatch");

  core::CampaignConfig config;
  config.runs = 3;
  config.journal_path = path;
  std::remove(path.c_str());
  core::run_campaign(*annealer, problem, config);

  core::CampaignConfig wrong_seed = config;
  wrong_seed.resume = true;
  wrong_seed.base_seed = config.base_seed + 1;
  EXPECT_THROW(core::run_campaign(*annealer, problem, wrong_seed),
               contract_error);

  core::CampaignConfig wrong_runs = config;
  wrong_runs.resume = true;
  wrong_runs.runs = 5;
  EXPECT_THROW(core::run_campaign(*annealer, problem, wrong_runs),
               contract_error);
}

TEST(FaultTolerance, ResumeRejectsInteriorCorruption) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("corrupt");

  core::CampaignConfig config;
  config.runs = 3;
  config.journal_path = path;
  std::remove(path.c_str());
  core::run_campaign(*annealer, problem, config);

  // Mangle an interior line (not the torn-tail case): this is real
  // corruption and must throw instead of silently dropping a run.
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 4u);
  lines[2] = "run 1 ok garbage";
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : lines) out << l << "\n";
  out.close();

  core::CampaignConfig resume = config;
  resume.resume = true;
  EXPECT_THROW(core::run_campaign(*annealer, problem, resume), contract_error);
}

TEST(FaultTolerance, ResumeWithoutJournalFileStartsFresh) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("fresh");
  std::remove(path.c_str());

  core::CampaignConfig config;
  config.runs = 3;
  config.journal_path = path;
  config.resume = true;  // nothing to resume from: degrade to a fresh start
  const auto result = core::run_campaign(*annealer, problem, config);
  EXPECT_EQ(result.completed, 3u);

  core::CampaignConfig plain;
  plain.runs = 3;
  const auto reference = core::run_campaign(*annealer, problem, plain);
  expect_results_equal(reference, result);
}

// ---------------------------------------------------------------------------
// Journal record codec and corrupt records on resume
// ---------------------------------------------------------------------------

core::JournalEntry sample_ok_entry() {
  core::JournalEntry entry;
  entry.run = 3;
  entry.record.seed = 0xDEADBEEFCAFEull;
  entry.record.status = core::RunStatus::kOk;
  entry.record.attempt = 2;
  entry.record.best_energy = -123.4567891234e-3;
  entry.record.solution.objective = 41.0 / 3.0;  // not exactly representable
  entry.record.solution.feasible = true;
  entry.record.solution.violations = 0.0;
  entry.record.best_spins = {ising::Spin{1}, ising::Spin{-1}, ising::Spin{-1},
                             ising::Spin{1}};
  entry.ledger.iterations = 200;
  entry.ledger.adc_conversions = 4800;
  entry.ledger.mux_slot_cycles = 600;
  entry.ledger.row_drives = 123;
  entry.ledger.column_drives = 456;
  entry.ledger.bg_dac_updates = 7;
  entry.ledger.exp_evaluations = 0;
  entry.ledger.spin_updates = 89;
  entry.ledger.crossbar_passes = 400;
  entry.ledger.tile_activations = 32;
  entry.ledger.partial_sum_updates = 16;
  return entry;
}

TEST(JournalCodec, OkEntryRoundTripsBitExactly) {
  const auto entry = sample_ok_entry();
  const std::string line = core::encode_journal_entry(entry);
  core::JournalEntry decoded;
  ASSERT_TRUE(core::decode_journal_entry(line, decoded));
  EXPECT_EQ(decoded.run, entry.run);
  expect_records_equal(decoded.record, entry.record);
  EXPECT_EQ(decoded.ledger.iterations, entry.ledger.iterations);
  EXPECT_EQ(decoded.ledger.adc_conversions, entry.ledger.adc_conversions);
  EXPECT_EQ(decoded.ledger.mux_slot_cycles, entry.ledger.mux_slot_cycles);
  EXPECT_EQ(decoded.ledger.row_drives, entry.ledger.row_drives);
  EXPECT_EQ(decoded.ledger.column_drives, entry.ledger.column_drives);
  EXPECT_EQ(decoded.ledger.bg_dac_updates, entry.ledger.bg_dac_updates);
  EXPECT_EQ(decoded.ledger.spin_updates, entry.ledger.spin_updates);
  EXPECT_EQ(decoded.ledger.crossbar_passes, entry.ledger.crossbar_passes);
  EXPECT_EQ(decoded.ledger.tile_activations, entry.ledger.tile_activations);
  EXPECT_EQ(decoded.ledger.partial_sum_updates,
            entry.ledger.partial_sum_updates);
}

TEST(JournalCodec, FailureStatusesRoundTripWithMessages) {
  for (auto status :
       {core::RunStatus::kFailed, core::RunStatus::kTimedOut,
        core::RunStatus::kCancelled}) {
    core::JournalEntry entry;
    entry.run = 1;
    entry.record.seed = 99;
    entry.record.status = status;
    entry.record.attempt = 1;
    entry.record.error = "message with spaces\tand a tab";
    entry.record.solution = core::failed_run_solution();
    core::JournalEntry decoded;
    ASSERT_TRUE(
        core::decode_journal_entry(core::encode_journal_entry(entry), decoded));
    EXPECT_EQ(decoded.run, entry.run);
    expect_records_equal(decoded.record, entry.record);
  }
}

TEST(JournalCodec, TruncatedLinesAreRejectedNotMisread) {
  // Every strict prefix of a valid line must fail to decode: a torn record
  // can never install as a shorter-but-plausible one.
  const std::string line = core::encode_journal_entry(sample_ok_entry());
  core::JournalEntry decoded;
  for (std::size_t len = 0; len < line.size(); ++len)
    EXPECT_FALSE(core::decode_journal_entry(line.substr(0, len), decoded))
        << "prefix of length " << len << " decoded";
}

/// A failed-run line whose message-length prefix claims 2^64 - 1 bytes.
std::string oversized_length_line(std::uint64_t seed) {
  return "run 0 failed 0 " + std::to_string(seed) +
         " 18446744073709551615 boom";
}

TEST(JournalCodec, MessageLengthIsCheckedBeforeAllocating) {
  // The length prefix must match the bytes left on the line; a corrupt
  // length fails the decode instead of sizing an allocation from it.
  core::JournalEntry decoded;
  EXPECT_FALSE(core::decode_journal_entry(oversized_length_line(5), decoded));
  EXPECT_FALSE(
      core::decode_journal_entry("run 0 failed 0 5 2000000000 boom", decoded));
  EXPECT_FALSE(core::decode_journal_entry("run 0 failed 0 5 5 boom", decoded));
  EXPECT_FALSE(core::decode_journal_entry("run 0 failed 0 5 3 boom", decoded));
  ASSERT_TRUE(core::decode_journal_entry("run 0 failed 0 5 4 boom", decoded));
  EXPECT_EQ(decoded.record.error, "boom");
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << "\n";
}

TEST(FaultTolerance, OversizedMessageLengthIsATornTailOrCorruption) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("oversized");

  core::CampaignConfig config;
  config.runs = 3;
  config.journal_path = path;
  std::remove(path.c_str());
  const auto uninterrupted = core::run_campaign(*annealer, problem, config);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 runs
  const auto bad = oversized_length_line(uninterrupted.per_run[0].seed);

  core::CampaignConfig resume = config;
  resume.resume = true;

  // As the final line it is what a dying writer leaves: dropped, and the
  // run missing from the journal re-executes.
  write_lines(path, {lines[0], lines[1], lines[2], bad});
  expect_results_equal(uninterrupted,
                       core::run_campaign(*annealer, problem, resume));

  // Anywhere earlier it is corruption.
  write_lines(path, {lines[0], bad, lines[1], lines[2]});
  EXPECT_THROW(core::run_campaign(*annealer, problem, resume),
               contract_error);
}

TEST(FaultTolerance, ResumeRejectsWrongSpinCount) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  const auto path = journal_path("spins");

  core::CampaignConfig config;
  config.runs = 2;
  config.journal_path = path;
  std::remove(path.c_str());
  core::run_campaign(*annealer, problem, config);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 runs

  // An ok line ends "<spins> end"; swap in spin strings one spin short of
  // the model, one spin long, and a 3-spin one.
  const std::string& line = lines[1];
  const std::size_t end = line.rfind(" end");
  const std::size_t start = line.rfind(' ', end - 1) + 1;
  const std::string spins = line.substr(start, end - start);
  ASSERT_EQ(spins.size(), problem.model->num_spins());
  core::CampaignConfig resume = config;
  resume.resume = true;
  for (const std::string& wrong :
       {spins.substr(1), spins + "+", std::string("+-+")}) {
    auto edited = lines;
    edited[1] = line.substr(0, start) + wrong + line.substr(end);
    write_lines(path, edited);
    EXPECT_THROW(core::run_campaign(*annealer, problem, resume),
                 contract_error)
        << wrong.size() << " spins";
  }
}

TEST(FaultTolerance, InvalidConfigIsRejected) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 2;

  core::CampaignConfig no_journal = config;
  no_journal.resume = true;  // resume needs a journal path
  EXPECT_THROW(core::run_campaign(*annealer, problem, no_journal),
               contract_error);

  core::CampaignConfig bad_inject = config;
  bad_inject.inject.fail_runs = {7};  // out of range for runs = 2
  EXPECT_THROW(core::run_campaign(*annealer, problem, bad_inject),
               contract_error);

  core::CampaignConfig bad_timeout = config;
  bad_timeout.run_timeout_seconds = -1.0;
  EXPECT_THROW(core::run_campaign(*annealer, problem, bad_timeout),
               contract_error);
}

// ---------------------------------------------------------------------------
// The fecim_solve CLI: batch isolation, failed rows, the job validator,
// failed campaigns and unmappable inputs in every mode, and every
// --annealer kind
// ---------------------------------------------------------------------------

#ifdef FECIM_SOLVE_PATH
TEST(FaultTolerance, BatchIsolatesMalformedInstances) {
  const std::string solver = FECIM_SOLVE_PATH;
  std::ifstream probe(solver);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  const std::string dir = testing::TempDir();
  const std::string bad = dir + "/fecim_bad.gset";
  const std::string manifest = dir + "/fecim_batch.manifest";
  const std::string csv = dir + "/fecim_batch.csv";
  {
    std::ofstream f(bad);
    f << "this is not a gset file\n";
  }
  {
    // One well-formed generated-free instance cannot be expressed in a
    // manifest, so pair the tracked Petersen fixture with the malformed one.
    std::ofstream f(manifest);
    f << "maxcut " << FECIM_SOURCE_DIR "/examples/data/maxcut_petersen.gset"
      << " good\n";
    f << "maxcut " << bad << " bad\n";
  }

  const std::string command = solver + " --batch " + manifest +
                              " --iterations 200 --runs 2 --csv > " + csv +
                              " 2> /dev/null";
  const int status = std::system(command.c_str());
  ASSERT_NE(status, -1);
  // One malformed instance: the batch completes but exits non-zero.
  EXPECT_NE(status, 0);

  std::ifstream in(csv);
  std::string line;
  bool good_ok = false, bad_failed = false;
  while (std::getline(in, line)) {
    if (line.rfind("good,", 0) == 0 &&
        line.rfind(",ok") == line.size() - 3) {
      good_ok = true;
    }
    if (line.rfind("bad,", 0) == 0 &&
        line.rfind(",failed") == line.size() - 7) {
      bad_failed = true;
    }
  }
  EXPECT_TRUE(good_ok) << "surviving batch row missing from CSV";
  EXPECT_TRUE(bad_failed) << "failed batch row missing from CSV";
}

/// Runs `args` through fecim_solve with stdout sent to `out_path`; returns
/// the exit status and leaves stderr in `err`.
int run_solver(const std::string& args, std::string& err,
               const std::string& out_path = "/dev/null") {
  const std::string err_path = testing::TempDir() + "/fecim_solver_err.txt";
  const std::string command = std::string(FECIM_SOLVE_PATH) + " " + args +
                              " > " + out_path + " 2> " + err_path;
  const int status = std::system(command.c_str());
  std::ifstream in(err_path);
  err.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return status;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The lines of a CSV file after its header.
std::vector<std::string> csv_rows(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> rows;
  std::string line;
  if (!std::getline(in, line)) return rows;
  while (std::getline(in, line)) rows.push_back(line);
  return rows;
}

/// The first `n` comma-separated columns of `row`.
std::string first_columns(const std::string& row, std::size_t n) {
  std::size_t end = 0;
  for (std::size_t k = 0; k < n && end != std::string::npos; ++k)
    end = row.find(',', end + (k > 0));
  return row.substr(0, end);
}

TEST(FaultTolerance, UndersizedGeneratedGraphsAreRejectedBeforeGenerating) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // Each used to stop on a library precondition (random_graph's edge
  // budget, the generators, bit slicing, the in-situ annealer): the job
  // validator rejects them first, exiting 2 naming the flag.  --flips
  // against an in-situ kind needs the encoded model, so solve() rejects it
  // as a failed job (exit 1).
  const struct {
    const char* args;
    const char* flag;
    int exit;
  } cases[] = {{"--nodes 12", "--nodes 12", 2},
               {"--problem coloring --nodes 3", "--nodes 3", 2},
               {"--problem coloring --nodes 6 --degree 6", "--degree 6", 2},
               {"--runs 0", "--runs", 2},
               {"--flips 0", "--flips", 2},
               {"--bits 0", "--bits 0", 2},
               {"--bits 17", "--bits 17", 2},
               {"--problem knapsack --items 0", "--items 0", 2},
               {"--problem partition --numbers 1", "--numbers 1", 2},
               {"--problem tsp --cities 2", "--cities 2", 2},
               {"--problem bogus", "--problem", 2},
               {"--problem qubo --nodes 1", "--flips 2", 1}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    std::string err;
    const int status = run_solver(c.args, err);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), c.exit);
    EXPECT_NE(err.find(c.flag), std::string::npos) << err;
    EXPECT_EQ(err.find("precondition"), std::string::npos) << err;
  }

  // Job lines fail at parse time with their line, and the stream goes on.
  const std::string jobs = testing::TempDir() + "/fecim_small_jobs.txt";
  {
    std::ofstream f(jobs);
    f << "maxcut - small --nodes 12\n";
    f << "coloring - dense --nodes 6 --degree 6\n";
    f << "maxcut - fine --nodes 13 --iterations 50 --runs 1\n";
    f << "partition - few --numbers 1\n";
    f << "qubo - wide --bits 17\n";
  }
  std::string err;
  const std::string csv = testing::TempDir() + "/fecim_small_jobs.csv";
  const int status = run_solver("--serve " + jobs, err, csv);
  EXPECT_NE(status, 0);
  EXPECT_NE(err.find(":1: --nodes 12"), std::string::npos) << err;
  EXPECT_NE(err.find(":2: --degree 6"), std::string::npos) << err;
  EXPECT_NE(err.find(":4: --numbers 1"), std::string::npos) << err;
  EXPECT_NE(err.find(":5: --bits 17"), std::string::npos) << err;
  EXPECT_EQ(err.find("precondition"), std::string::npos) << err;
  std::ifstream in(csv);
  std::string line;
  std::size_t failed = 0;
  bool fine_ok = false;
  while (std::getline(in, line)) {
    failed += line.size() >= 7 && line.rfind(",failed") == line.size() - 7;
    fine_ok |= line.rfind("fine,", 0) == 0 && line.rfind(",ok") == line.size() - 3;
  }
  EXPECT_EQ(failed, 4u);
  EXPECT_TRUE(fine_ok);
}

TEST(FaultTolerance, FailedRowsNameTheJobAsFarAsItsLineParsed) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // Each line fails at a different stage -- opening its file, the job
  // validator, an unknown flag -- and its row carries the job's own name
  // (or generated name), family, annealer, algorithm, runs and
  // --iterations, never the process's defaults.
  const struct {
    const char* line;
    const char* row;
  } cases[] = {
      {"maxcut /nonexistent x --runs 2 --iterations 7",
       "x,maxcut,this-work,insitu,2,7,0"},
      {"maxcut - gen --nodes 12 --runs 3", "gen,maxcut,this-work,insitu,3,0,0"},
      {"qubo - typo --annealer mesa --bogus 1",
       "typo,qubo,mesa,insitu,10,0,0"},
      {"knapsack - --items 0 --runs 2",
       "knapsack-0,knapsack,this-work,insitu,2,0,0"},
      {"maxcut /nonexistent y --annealer cim-asic --runs 4",
       "y,maxcut,cim-asic,insitu,4,0,0"}};
  const std::string dir = testing::TempDir();
  {
    std::ofstream f(dir + "/fecim_failed_rows.txt");
    for (const auto& c : cases) f << c.line << '\n';
  }
  std::string err;
  run_solver("--serve " + dir + "/fecim_failed_rows.txt", err,
             dir + "/fecim_failed_rows.csv");
  const auto rows = csv_rows(dir + "/fecim_failed_rows.csv");
  ASSERT_EQ(rows.size(), std::size(cases)) << err;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(first_columns(rows[k], 7), cases[k].row) << cases[k].line;
    EXPECT_EQ(rows[k].rfind(",failed"), rows[k].size() - 7) << rows[k];
  }

  // A manifest's jobs that fail to run get the same rows.
  {
    std::ofstream f(dir + "/fecim_failed_rows.batch");
    f << cases[0].line << '\n' << cases[4].line << '\n';
  }
  run_solver("--batch " + dir + "/fecim_failed_rows.batch --csv", err,
             dir + "/fecim_failed_rows_batch.csv");
  const auto batch = csv_rows(dir + "/fecim_failed_rows_batch.csv");
  ASSERT_EQ(batch.size(), 2u) << err;
  EXPECT_EQ(batch[0], rows[0]);
  EXPECT_EQ(batch[1], rows[4]);
}

TEST(FaultTolerance, BatchAndServePrintIdenticalRows) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // One loop runs both modes, so the same manifest yields the same bytes.
  const std::string manifest = FECIM_SOURCE_DIR "/examples/data/campaign.batch";
  const std::string flags = " --iterations 300 --runs 2 --threads 2";
  const std::string dir = testing::TempDir();
  std::string err;
  ASSERT_EQ(run_solver("--batch " + manifest + " --csv" + flags, err,
                       dir + "/fecim_identity_batch.csv"),
            0)
      << err;
  ASSERT_EQ(run_solver("--serve " + manifest + flags, err,
                       dir + "/fecim_identity_serve.csv"),
            0)
      << err;
  const auto batch = read_text(dir + "/fecim_identity_batch.csv");
  EXPECT_EQ(csv_rows(dir + "/fecim_identity_batch.csv").size(), 3u) << batch;
  EXPECT_EQ(batch, read_text(dir + "/fecim_identity_serve.csv"));
}

TEST(FaultTolerance, ACampaignWithNoCompletedRunFailsInEveryMode) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // Every run times out long before its iteration budget: the job keeps
  // its row (status ok, completed_rate 0), prints why on stderr, and
  // counts as failed, so each mode exits 1.
  const std::string job =
      "--nodes 48 --iterations 100000000 --runs 2 --run-timeout 0.001";
  const std::string dir = testing::TempDir();
  {
    std::ofstream f(dir + "/fecim_no_run.txt");
    f << "maxcut - t " << job << '\n';
  }
  const std::string modes[] = {job + " --csv",
                               "--serve " + dir + "/fecim_no_run.txt",
                               "--batch " + dir + "/fecim_no_run.txt --csv"};
  for (const auto& args : modes) {
    SCOPED_TRACE(args);
    std::string err;
    const int status = run_solver(args, err, dir + "/fecim_no_run.csv");
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    EXPECT_NE(err.find("no run completed (2 attempted)"), std::string::npos)
        << err;
    const auto rows = csv_rows(dir + "/fecim_no_run.csv");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_NE(rows[0].find(",0.000,0.000,0.000,"), std::string::npos)
        << rows[0];
    EXPECT_EQ(rows[0].rfind(",ok"), rows[0].size() - 3) << rows[0];
  }
}

TEST(FaultTolerance, UnmappableInputsAreBufferedWithinABound) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // /dev/zero cannot be mapped and never ends: read_file stops at its
  // buffer limit with a diagnostic naming the path and the limit.  Outside
  // the sanitizers' reserved address space, an address-space cap turns a
  // regression into a failed command instead of a drained host.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string cap;
#else
  const std::string cap = "ulimit -v 2000000; ";
#endif
  const std::string dir = testing::TempDir();
  const std::string err_path = dir + "/fecim_dev_zero.err";
  const int status = std::system(
      (cap + FECIM_SOLVE_PATH + " --file /dev/zero --csv > /dev/null 2> " +
       err_path)
          .c_str());
  const auto err = read_text(err_path);
  ASSERT_TRUE(WIFEXITED(status)) << err;
  EXPECT_EQ(WEXITSTATUS(status), 1) << err;
  EXPECT_NE(err.find("/dev/zero: input exceeds 256 MiB"), std::string::npos)
      << err;
  EXPECT_EQ(err.find("empty input"), std::string::npos) << err;
  EXPECT_EQ(err.find("bad_alloc"), std::string::npos) << err;

  // A fixture piped through /dev/stdin -- the buffered branch, format
  // sniffing included -- gives the row the mapped file gives, after the
  // instance column.
  const struct {
    const char* problem;
    const char* fixture;
  } fixtures[] = {{"maxcut", "maxcut_petersen.gset"},
                  {"tsp", "tsp_pentagon.xy"},
                  {"tsp", "tsp_ulysses5.tsp"}};
  for (const auto& f : fixtures) {
    SCOPED_TRACE(f.fixture);
    const std::string path =
        std::string(FECIM_SOURCE_DIR "/examples/data/") + f.fixture;
    const std::string args = std::string("--problem ") + f.problem +
                             " --iterations 300 --runs 2 --threads 2 --csv";
    std::string run_err;
    ASSERT_EQ(run_solver(args + " --file " + path, run_err,
                         dir + "/fecim_mapped.csv"),
              0)
        << run_err;
    ASSERT_EQ(std::system(("cat " + path + " | " + FECIM_SOLVE_PATH + " " +
                           args + " --file /dev/stdin > " + dir +
                           "/fecim_piped.csv 2> /dev/null")
                              .c_str()),
              0);
    const auto mapped = csv_rows(dir + "/fecim_mapped.csv");
    const auto piped = csv_rows(dir + "/fecim_piped.csv");
    ASSERT_EQ(mapped.size(), 1u);
    ASSERT_EQ(piped.size(), 1u);
    EXPECT_EQ(piped[0].rfind("/dev/stdin,", 0), 0u) << piped[0];
    EXPECT_EQ(piped[0].substr(piped[0].find(',')),
              mapped[0].substr(mapped[0].find(',')));
  }
}

TEST(FaultTolerance, EveryAnnealerKindRunsThroughTheCli) {
  std::ifstream probe(FECIM_SOLVE_PATH);
  if (!probe.good()) GTEST_SKIP() << "fecim_solve binary not built";
  probe.close();

  // Every --annealer name on a generated Max-Cut, and MESA (the direct-E
  // epoch loop) on a constrained family whose model carries an ancilla.
  const struct {
    const char* annealer;
    const char* instance;
  } cases[] = {{"this-work", "--nodes 16"},
               {"this-work-ideal", "--nodes 16"},
               {"cim-fpga", "--nodes 16"},
               {"cim-asic", "--nodes 16"},
               {"mesa", "--nodes 16"},
               {"mesa", "--problem knapsack --items 6"}};
  const std::string csv = testing::TempDir() + "/fecim_annealer_kind.csv";
  for (const auto& c : cases) {
    const std::string args = std::string("--annealer ") + c.annealer + " " +
                             c.instance + " --iterations 200 --runs 2 --csv";
    SCOPED_TRACE(args);
    std::string err;
    EXPECT_EQ(run_solver(args, err, csv), 0) << err;
    // One header and one row; the row's third column is the annealer.
    std::ifstream in(csv);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header) && std::getline(in, row));
    EXPECT_EQ(header.rfind("instance,family,annealer,", 0), 0u) << header;
    const auto first = row.find(',');
    const auto second = row.find(',', first + 1);
    const auto third = row.find(',', second + 1);
    ASSERT_NE(third, std::string::npos) << row;
    EXPECT_EQ(row.substr(second + 1, third - second - 1), c.annealer) << row;
    EXPECT_EQ(row.rfind(",ok"), row.size() - 3) << row;
  }

  // The human report's annealer line names what each kind runs with: the
  // in-situ kinds --flips and the comparator gain, the direct-E kinds their
  // one-spin baseline moves and no gain, simulated bifurcation neither.
  const struct {
    const char* args;
    const char* expect;
    const char* absent;
  } reports[] = {
      {"--annealer this-work --flips 3 --gain 8", "|F|=3, gain=8.0, k=8",
       nullptr},
      {"--annealer this-work-ideal --flips 3", "|F|=3, gain=16.0, k=8",
       nullptr},
      {"--annealer cim-fpga --flips 3", "|F|=1, k=8", "gain"},
      {"--annealer cim-asic --flips 3", "|F|=1, k=8", "gain"},
      {"--annealer mesa --flips 3", "|F|=1, k=8", "gain"},
      {"--algorithm sb-ballistic --flips 3", "(1 threads), k=8", "|F|"},
      {"--algorithm sb-discrete --flips 3", "(1 threads), k=8", "|F|"}};
  const std::string report = testing::TempDir() + "/fecim_annealer_report.txt";
  for (const auto& r : reports) {
    const std::string args = std::string(r.args) +
                             " --nodes 16 --iterations 200 --runs 2 "
                             "--threads 1";
    SCOPED_TRACE(args);
    std::string err;
    EXPECT_EQ(run_solver(args, err, report), 0) << err;
    std::ifstream in(report);
    std::string line, annealer_line;
    while (std::getline(in, line))
      if (line.rfind("annealer   :", 0) == 0) annealer_line = line;
    ASSERT_FALSE(annealer_line.empty());
    EXPECT_NE(annealer_line.find(r.expect), std::string::npos)
        << annealer_line;
    if (r.absent != nullptr) {
      EXPECT_EQ(annealer_line.find(r.absent), std::string::npos)
          << annealer_line;
    }
    // Only the in-situ kinds run --flips.
    if (std::string(r.expect).find("|F|=3") == std::string::npos) {
      EXPECT_EQ(annealer_line.find("|F|=3"), std::string::npos)
          << annealer_line;
    }
  }
}
#endif  // FECIM_SOLVE_PATH

}  // namespace
