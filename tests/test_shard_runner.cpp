// Multi-process sharded campaigns (docs/sharding.md): record codec
// round-trips, torn-record detection on the stream decoder, bit-identity of
// the fork-based worker pool against the in-process pool for every worker
// count and regime (noisy, ideal, tiled, SB, warm-started), dead-worker
// recovery, retry inside a worker, and per-shard journal resume union.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/run_journal.hpp"
#include "core/run_lifecycle.hpp"
#include "core/runner.hpp"
#include "core/shard_runner.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "util/assert.hpp"

namespace {

using namespace fecim;

core::ProblemInstance test_problem(std::size_t nodes = 24) {
  return problems::make_maxcut_problem(
      "shard-" + std::to_string(nodes),
      problems::random_graph(nodes, 5.0, problems::WeightScheme::kUnit, 11),
      16, 3);
}

std::unique_ptr<core::Annealer> test_annealer(
    const core::ProblemInstance& problem, std::size_t iterations = 200) {
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
  if (!a.energy.empty()) EXPECT_EQ(a.energy.mean(), b.energy.mean());
  if (!a.time.empty()) EXPECT_EQ(a.time.mean(), b.time.mean());
  EXPECT_EQ(a.total_ledger.iterations, b.total_ledger.iterations);
  EXPECT_EQ(a.total_ledger.adc_conversions, b.total_ledger.adc_conversions);
  EXPECT_EQ(a.total_ledger.spin_updates, b.total_ledger.spin_updates);
  EXPECT_EQ(a.total_ledger.row_drives, b.total_ledger.row_drives);
  ASSERT_EQ(a.per_run.size(), b.per_run.size());
  for (std::size_t run = 0; run < a.per_run.size(); ++run)
    expect_records_equal(a.per_run[run], b.per_run[run]);
}

/// The sharded path must reproduce the in-process result bit for bit for
/// every worker count -- the tentpole invariant (PERF.md invariant 9).
void expect_sharded_bit_identical(const core::Annealer& annealer,
                                  const core::ProblemInstance& problem,
                                  core::CampaignConfig config) {
  config.workers = 0;
  const auto baseline = core::run_campaign(annealer, problem, config);
  for (std::size_t workers : {1u, 2u, 3u}) {
    config.workers = workers;
    const auto sharded = core::run_campaign(annealer, problem, config);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_results_equal(baseline, sharded);
  }
}

std::string temp_journal_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("fecim_shard_" + tag + ".journal"))
      .string();
}

void remove_journal_family(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  for (std::size_t k = 0; k < 8; ++k)
    std::filesystem::remove(core::shard_journal_path(path, k), ec);
}

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

// ---------------------------------------------------------------------------
// Record codec (journal line format == shard wire format)
// ---------------------------------------------------------------------------

TEST(ShardCodec, OkEntryRoundTripsBitExactly) {
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

TEST(ShardCodec, FailureStatusesRoundTripWithMessages) {
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

TEST(ShardCodec, TruncatedLinesAreRejectedNotMisread) {
  // Every strict prefix of a valid line must fail to decode: a torn record
  // can never install as a shorter-but-plausible one.
  const std::string line = core::encode_journal_entry(sample_ok_entry());
  core::JournalEntry decoded;
  for (std::size_t len = 0; len < line.size(); ++len)
    EXPECT_FALSE(core::decode_journal_entry(line.substr(0, len), decoded))
        << "prefix of length " << len << " decoded";
}

TEST(ShardStreamDecoder, SplitsChunksAndHoldsTornTail) {
  const auto entry = sample_ok_entry();
  const std::string line = core::encode_journal_entry(entry);
  const std::string stream = line + "\n" + line.substr(0, line.size() / 2);

  core::RecordStreamDecoder decoder;
  std::vector<core::JournalEntry> out;
  // Feed byte by byte -- chunk boundaries must never matter.
  for (char c : stream) decoder.feed(&c, 1, out);
  ASSERT_EQ(out.size(), 1u);
  expect_records_equal(out[0].record, entry.record);
  EXPECT_TRUE(decoder.has_partial_line());  // the torn half stays buffered

  // Completing the second record drains the partial buffer.
  const std::string rest = line.substr(line.size() / 2) + "\n";
  decoder.feed(rest.data(), rest.size(), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(decoder.has_partial_line());
  expect_records_equal(out[1].record, entry.record);
}

TEST(ShardStreamDecoder, NewlineTerminatedGarbageThrows) {
  // A complete line that fails to decode is wire corruption, not a torn
  // tail -- it must throw instead of being skipped.
  core::RecordStreamDecoder decoder;
  std::vector<core::JournalEntry> out;
  const std::string garbage = "run 0 ok 0 nonsense\n";
  EXPECT_THROW(decoder.feed(garbage.data(), garbage.size(), out),
               contract_error);
}

// ---------------------------------------------------------------------------
// Bit-identity across worker counts and regimes
// ---------------------------------------------------------------------------

TEST(ShardRunner, PathHelpers) {
  EXPECT_EQ(core::shard_journal_path("c.journal", 0), "c.journal.shard0");
  EXPECT_EQ(core::shard_journal_path("c.journal", 12), "c.journal.shard12");
  const auto seeds = core::derive_run_seeds(42, 6);
  EXPECT_EQ(seeds, core::derive_run_seeds(42, 6));  // pure function
  EXPECT_NE(seeds[0], seeds[1]);
}

TEST(ShardRunner, NoisyCampaignBitIdenticalForEveryWorkerCount) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);  // default setup is noisy
  core::CampaignConfig config;
  config.runs = 5;
  config.base_seed = 7;
  expect_sharded_bit_identical(*annealer, problem, config);
}

TEST(ShardRunner, IdealCampaignBitIdentical) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  core::StandardSetup setup;
  setup.iterations = 200;
  setup.variation = {};  // deterministic regime: exact arithmetic
  const auto annealer = core::make_annealer(core::AnnealerKind::kThisWorkIdeal,
                                            problem.model, setup);
  core::CampaignConfig config;
  config.runs = 5;
  expect_sharded_bit_identical(*annealer, problem, config);
}

TEST(ShardRunner, TiledCampaignBitIdentical) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  core::StandardSetup setup;
  setup.iterations = 200;
  setup.tiles = crossbar::TileShape{16, 16};
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, problem.model, setup);
  core::CampaignConfig config;
  config.runs = 4;
  expect_sharded_bit_identical(*annealer, problem, config);
}

TEST(ShardRunner, SimulatedBifurcationCampaignBitIdentical) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  core::StandardSetup setup;
  setup.iterations = 60;
  const auto annealer = core::make_annealer(core::AnnealerKind::kSbBallistic,
                                            problem.model, setup);
  core::CampaignConfig config;
  config.runs = 4;
  expect_sharded_bit_identical(*annealer, problem, config);
}

TEST(ShardRunner, WarmStartedCampaignBitIdentical) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  ASSERT_TRUE(problem.warm_start);
  core::StandardSetup setup;
  setup.iterations = 200;
  setup.initial_spins =
      std::make_shared<const ising::SpinVector>(problem.warm_start());
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, problem.model, setup);
  core::CampaignConfig config;
  config.runs = 4;
  expect_sharded_bit_identical(*annealer, problem, config);
}

TEST(ShardRunner, MoreWorkersThanRunsClampsCleanly) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 2;
  config.workers = 0;
  const auto baseline = core::run_campaign(*annealer, problem, config);
  config.workers = 16;  // clamped to the run count
  expect_results_equal(baseline, core::run_campaign(*annealer, problem, config));
}

// ---------------------------------------------------------------------------
// Failure model
// ---------------------------------------------------------------------------

TEST(ShardRunner, DeadWorkerRunsAreReExecutedBitIdentically) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 6;
  config.workers = 0;
  const auto baseline = core::run_campaign(*annealer, problem, config);

  const auto journal = temp_journal_path("kill");
  remove_journal_family(journal);
  config.workers = 3;
  config.journal_path = journal;
  config.inject.kill_workers = {1};  // dies after streaming run 1
  const auto recovered = core::run_campaign(*annealer, problem, config);
  expect_results_equal(baseline, recovered);

  // Success removes the per-shard journals; the main journal holds every
  // record, so a plain resume would re-execute nothing.
  EXPECT_TRUE(std::filesystem::exists(journal));
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_FALSE(
        std::filesystem::exists(core::shard_journal_path(journal, k)))
        << "shard file " << k << " leaked";
  remove_journal_family(journal);
}

TEST(ShardRunner, RetryHappensInsideTheWorker) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 4;
  config.retries = 1;
  config.inject.fail_runs = {2};  // attempt 0 throws; attempt 1 recovers
  config.workers = 0;
  const auto baseline = core::run_campaign(*annealer, problem, config);
  ASSERT_EQ(baseline.per_run[2].status, core::RunStatus::kOk);
  EXPECT_EQ(baseline.per_run[2].attempt, 1u);

  config.workers = 2;
  const auto sharded = core::run_campaign(*annealer, problem, config);
  expect_results_equal(baseline, sharded);
}

TEST(ShardRunner, CancelledRecordsTravelTheWire) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  // A pre-expired campaign deadline cancels every run.  Cancelled records
  // are never journaled, but the parent's per_run must still match the
  // in-process path bit for bit -- they must cross the pipe.
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 4;
  config.time_limit_seconds = 1e-9;
  config.workers = 0;
  const auto baseline = core::run_campaign(*annealer, problem, config);
  EXPECT_EQ(baseline.completed, 0u);
  config.workers = 2;
  const auto sharded = core::run_campaign(*annealer, problem, config);
  expect_results_equal(baseline, sharded);
}

TEST(ShardRunner, KillInjectionRequiresShardedExecution) {
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);
  core::CampaignConfig config;
  config.runs = 4;
  config.workers = 0;
  config.inject.kill_workers = {0};  // meaningless without workers
  EXPECT_THROW(core::run_campaign(*annealer, problem, config), contract_error);
  config.workers = 2;
  config.inject.kill_workers = {2};  // out of range for 2 workers
  EXPECT_THROW(core::run_campaign(*annealer, problem, config), contract_error);
}

// ---------------------------------------------------------------------------
// Per-shard journal resume union
// ---------------------------------------------------------------------------

TEST(ShardRunner, ResumeUnionsMainAndShardJournals) {
  if (!core::shard_runner_supported()) GTEST_SKIP() << "no fork";
  const auto problem = test_problem();
  const auto annealer = test_annealer(problem);

  // Produce the complete journal of an uninterrupted campaign.
  const auto journal = temp_journal_path("resume");
  remove_journal_family(journal);
  core::CampaignConfig config;
  config.runs = 5;
  config.journal_path = journal;
  config.workers = 0;
  const auto baseline = core::run_campaign(*annealer, problem, config);

  // Records land in completion order, which a loaded host permutes: index
  // them by run number.
  std::vector<std::string> run_lines(config.runs);
  std::size_t journaled = 0;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("run ", 0) != 0) continue;
      const std::size_t run = std::stoul(line.substr(4));
      ASSERT_LT(run, config.runs);
      run_lines[run] = line;
      ++journaled;
    }
  }
  ASSERT_EQ(journaled, config.runs);

  // Simulate an interrupted sharded campaign: runs {0, 2} made it into the
  // main journal, runs {1, 3} only into worker 0's shard journal, run 4 was
  // lost entirely.
  const auto header =
      core::format_journal_header(config.base_seed, config.runs);
  {
    std::ofstream main(journal, std::ios::trunc);
    main << header << "\n" << run_lines[0] << "\n" << run_lines[2] << "\n";
    std::ofstream shard(core::shard_journal_path(journal, 0), std::ios::trunc);
    shard << header << "\n" << run_lines[1] << "\n" << run_lines[3] << "\n";
  }

  // Arm fault injection on every resumed run: if the union failed to
  // install them, re-execution would fail the runs and break bit-identity.
  config.workers = 2;
  config.resume = true;
  config.inject.fail_runs = {0, 1, 2, 3};
  const auto resumed = core::run_campaign(*annealer, problem, config);
  expect_results_equal(baseline, resumed);

  // The union was persisted into the main journal and the shard file
  // removed, so the next resume no longer depends on it.
  EXPECT_FALSE(
      std::filesystem::exists(core::shard_journal_path(journal, 0)));
  const auto entries = core::read_journal_file(journal, config.base_seed,
                                               config.runs);
  EXPECT_EQ(entries.size(), config.runs);
  remove_journal_family(journal);
}

}  // namespace
