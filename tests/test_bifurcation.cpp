// Simulated-bifurcation backend + run-driver refactor guards.
//
// Two concerns share this file because they share one contract:
//
//  * Refactor guard -- the legacy annealers (in-situ analog/ideal, direct-E,
//    MESA) were rebuilt on core/run_driver.hpp; the FNV-1a digests below
//    were captured from the PRE-refactor binaries and pin every observable
//    field of their AnnealResults (energies, spins, counters, trajectory,
//    ledger snapshots) bit-for-bit.  A digest mismatch means the shared
//    driver changed legacy behavior -- fix the driver, never re-pin.
//
//  * SB backend -- determinism per seed, thread-count invariance through
//    run_campaign, the per-(seed, tile shape) noise pin, warm starts,
//    cooperative cancellation, and journal/resume bit-identity: the same
//    run contracts every other backend honors.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/annealer_factory.hpp"
#include "core/bifurcation_annealer.hpp"
#include "core/run_driver.hpp"
#include "core/run_lifecycle.hpp"
#include "core/runner.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "problems/warm_start.hpp"
#include "util/assert.hpp"

namespace {

using namespace fecim;

// ---------------------------------------------------------------------------
// Refactor guard: pre-refactor goldens for the legacy annealers.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

/// Digest of every observable AnnealResult field.  Must stay byte-for-byte
/// in sync with the capture tool that produced the goldens.
std::uint64_t result_digest(const core::AnnealResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv1a(hash, result.best_energy);
  hash = fnv1a(hash, result.final_energy);
  hash = fnv1a(hash, result.accepted_moves);
  hash = fnv1a(hash, result.uphill_accepted);
  for (const auto spin : result.best_spins)
    hash = fnv1a(hash, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(spin)));
  for (const auto spin : result.final_spins)
    hash = fnv1a(hash, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(spin)));
  hash = fnv1a(hash, result.ledger.iterations);
  hash = fnv1a(hash, result.ledger.adc_conversions);
  hash = fnv1a(hash, result.ledger.spin_updates);
  hash = fnv1a(hash, result.ledger.exp_evaluations);
  hash = fnv1a(hash, result.ledger.bg_dac_updates);
  for (const auto& point : result.trajectory) {
    hash = fnv1a(hash, point.iteration);
    hash = fnv1a(hash, point.energy);
    hash = fnv1a(hash, point.best_energy);
    hash = fnv1a(hash, point.control);
  }
  for (const auto& snap : result.ledger_trajectory) {
    hash = fnv1a(hash, snap.iteration);
    hash = fnv1a(hash, snap.ledger.adc_conversions);
    hash = fnv1a(hash, snap.ledger.spin_updates);
  }
  return hash;
}

struct Golden {
  const char* name;
  core::AnnealerKind kind;
  double best_energy;
  std::uint64_t accepted_moves;
  std::uint64_t adc_conversions;
  std::uint64_t trajectory_points;
  std::uint64_t digest;
};

// Captured from the pre-refactor annealers: gset_like_instance(48, 7),
// StandardSetup{iterations = 400, trace = {true, 7}}, seed 11.
constexpr Golden kGoldens[] = {
    {"This Work", core::AnnealerKind::kThisWork, -76.0, 79, 12800, 58,
     0x15c28f7fc643481eull},
    {"This Work (ideal)", core::AnnealerKind::kThisWorkIdeal, -82.0, 85,
     12800, 58, 0x7dd1ae8bbd5ead05ull},
    {"CiM/FPGA", core::AnnealerKind::kCimFpga, -42.0, 301, 307200, 58,
     0xa35ff4123b261bc7ull},
    {"MESA", core::AnnealerKind::kMesa, -88.0, 72, 307200, 0,
     0xc8c347b26d786500ull},
};

TEST(RunDriverRefactor, LegacyAnnealersMatchPreRefactorGoldens) {
  auto graph = problems::gset_like_instance(48, 7);
  const auto instance =
      problems::make_maxcut_problem("golden", std::move(graph));

  core::StandardSetup setup;
  setup.iterations = 400;
  setup.trace = {true, 7};

  for (const auto& golden : kGoldens) {
    const auto annealer =
        core::make_annealer(golden.kind, instance.model, setup);
    const auto result = annealer->run(11);
    EXPECT_EQ(result.best_energy, golden.best_energy) << golden.name;
    EXPECT_EQ(result.accepted_moves, golden.accepted_moves) << golden.name;
    EXPECT_EQ(result.ledger.adc_conversions, golden.adc_conversions)
        << golden.name;
    EXPECT_EQ(result.trajectory.size(), golden.trajectory_points)
        << golden.name;
    EXPECT_EQ(result_digest(result), golden.digest)
        << golden.name
        << ": the shared run driver changed legacy annealer behavior -- "
           "fix the driver, do not re-pin this digest";
  }
}

TEST(RunDriver, WarmStartCopiesSpinsAndPinsAncilla) {
  // A fielded model folds into an ancilla, exercising the re-pin path.
  const auto qubo = problems::random_qubo(12, 4.0, 5);
  const auto problem = problems::make_qubo_problem("driver-warm", qubo);
  const auto& model = *problem.model;
  ASSERT_TRUE(model.has_ancilla());

  ising::SpinVector warm(model.num_spins(), ising::Spin{-1});
  warm[2] = ising::Spin{1};
  warm[model.ancilla_index()] = ising::Spin{-1};  // deliberately wrong

  const core::RunDriver driver(model, 9, core::CancellationToken::none(),
                               {0, core::TraceOptions{}, &warm});
  EXPECT_EQ(driver.spins[2], ising::Spin{1});
  EXPECT_EQ(driver.spins[0], ising::Spin{-1});
  // The driver re-pins the ancilla regardless of the warm vector.
  EXPECT_EQ(driver.spins[model.ancilla_index()], ising::Spin{1});
  auto pinned = warm;
  pinned[model.ancilla_index()] = ising::Spin{1};
  EXPECT_EQ(driver.energy, model.energy(pinned));
  EXPECT_EQ(driver.result.best_energy, driver.energy);
}

TEST(RunDriver, WarmStartSizeMismatchIsContractError) {
  const auto problem = problems::make_maxcut_problem(
      "driver-bad-warm",
      problems::random_graph(10, 3.0, problems::WeightScheme::kUnit, 4), 8, 4);
  core::StandardSetup setup;
  setup.iterations = 10;
  setup.initial_spins = std::make_shared<const ising::SpinVector>(
      ising::SpinVector(3, ising::Spin{1}));  // wrong length
  const auto annealer = core::make_annealer(core::AnnealerKind::kThisWorkIdeal,
                                            problem.model, setup);
  EXPECT_THROW(annealer->run(1), contract_error);
}

// ---------------------------------------------------------------------------
// Simulated-bifurcation backend
// ---------------------------------------------------------------------------

std::shared_ptr<const ising::IsingModel> sb_model(std::uint64_t seed,
                                                  std::size_t n = 14) {
  const auto graph =
      problems::random_graph(n, 4.0, problems::WeightScheme::kUnit, seed);
  return std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(graph));
}

TEST(BifurcationAnnealer, FindsExactOptimumOnSmallInstances) {
  const auto model = sb_model(1);
  const auto [spins, optimum] = model->brute_force_ground_state();

  core::SbConfig config;
  config.steps = 500;
  config.engine = core::SbConfig::EngineKind::kIdeal;
  const core::BifurcationAnnealer annealer(model, config);
  int hits = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = annealer.run(seed);
    EXPECT_GE(result.best_energy, optimum - 1e-9);
    hits += std::fabs(result.best_energy - optimum) < 1e-9;
  }
  EXPECT_GE(hits, 8);  // near-certain on a 14-spin instance
}

TEST(BifurcationAnnealer, BothVariantsDeterministicPerSeed) {
  const auto model = sb_model(2, 24);
  for (const auto variant :
       {core::SbVariant::kBallistic, core::SbVariant::kDiscrete}) {
    core::SbConfig config;
    config.steps = 150;
    config.variant = variant;
    config.trace = {true, 11};
    const core::BifurcationAnnealer annealer(model, config);
    const auto a = annealer.run(7);
    const auto b = annealer.run(7);
    EXPECT_EQ(a.best_energy, b.best_energy);
    EXPECT_EQ(a.final_energy, b.final_energy);
    EXPECT_EQ(a.final_spins, b.final_spins);
    EXPECT_EQ(a.accepted_moves, b.accepted_moves);
    EXPECT_EQ(a.ledger.adc_conversions, b.ledger.adc_conversions);
    EXPECT_EQ(a.trajectory.size(), b.trajectory.size());
    // Different seeds diverge (noise + momenta + dither all re-key).
    const auto c = annealer.run(8);
    EXPECT_NE(a.final_spins, c.final_spins);
  }
}

TEST(BifurcationAnnealer, CampaignIsThreadCountInvariant) {
  const auto problem = problems::make_maxcut_problem(
      "sb-threads",
      problems::random_graph(40, 5.0, problems::WeightScheme::kUnit, 6), 16,
      6);
  core::StandardSetup setup;
  setup.iterations = 120;
  const auto annealer = core::make_annealer(core::AnnealerKind::kSbBallistic,
                                            problem.model, setup);

  core::CampaignConfig serial;
  serial.runs = 6;
  serial.threads = 1;
  core::CampaignConfig parallel = serial;
  parallel.threads = 4;

  const auto a = core::run_campaign(*annealer, problem, serial);
  const auto b = core::run_campaign(*annealer, problem, parallel);
  ASSERT_EQ(a.per_run.size(), b.per_run.size());
  for (std::size_t run = 0; run < a.per_run.size(); ++run) {
    EXPECT_EQ(a.per_run[run].seed, b.per_run[run].seed);
    EXPECT_EQ(a.per_run[run].best_energy, b.per_run[run].best_energy);
    EXPECT_EQ(a.per_run[run].best_spins, b.per_run[run].best_spins);
  }
  EXPECT_EQ(a.total_ledger.adc_conversions, b.total_ledger.adc_conversions);
}

TEST(BifurcationAnnealer, NoisyResultsArePinnedPerSeedAndTileShape) {
  const auto model = sb_model(3, 32);
  core::SbConfig config;
  config.steps = 60;
  config.variation = {0.03, 0.02, 0.0, 0.0};  // read noise on

  // Same (seed, tile shape) twice: bit-identical.
  const core::BifurcationAnnealer monolithic(model, config);
  EXPECT_EQ(monolithic.run(5).final_spins, monolithic.run(5).final_spins);

  // A different tile grid performs different conversions, so the
  // counter-keyed noise deliberately differs.
  auto tiled_config = config;
  tiled_config.tiles = crossbar::TileShape{16, 16};
  const core::BifurcationAnnealer tiled(model, tiled_config);
  const auto a = monolithic.run(5);
  const auto c = tiled.run(5);
  EXPECT_EQ(tiled.run(5).final_spins, c.final_spins);
  EXPECT_NE(a.ledger.adc_conversions, c.ledger.adc_conversions);
}

TEST(BifurcationAnnealer, WarmStartBiasesTheRun) {
  const auto problem = problems::make_maxcut_problem(
      "sb-warm",
      problems::gset_like_instance(60, 9), 24, 9);
  const auto warm = problem.warm_start();
  ASSERT_EQ(warm.size(), problem.model->num_spins());
  const double warm_energy = problem.model->energy(warm);

  core::SbConfig config;
  config.steps = 80;
  config.engine = core::SbConfig::EngineKind::kIdeal;
  config.initial_spins = std::make_shared<const ising::SpinVector>(warm);
  const core::BifurcationAnnealer annealer(problem.model, config);
  const auto result = annealer.run(3);
  // The warm configuration is the starting incumbent: SB can only improve.
  EXPECT_LE(result.best_energy, warm_energy);
  // And the warm-started run is still deterministic.
  EXPECT_EQ(annealer.run(3).final_spins, result.final_spins);
}

TEST(BifurcationAnnealer, ExpiredDeadlineTripsCooperativePoll) {
  const auto model = sb_model(4, 20);
  core::SbConfig config;
  config.steps = 50;
  config.engine = core::SbConfig::EngineKind::kIdeal;
  const core::BifurcationAnnealer annealer(model, config);

  core::CancellationToken token;
  token.set_run_deadline(core::CancellationToken::Clock::now() -
                         std::chrono::milliseconds(1));
  // The amortized poll fires at step 0, so a pre-expired deadline trips
  // before any dynamics run.
  EXPECT_THROW(annealer.run(1, token), core::run_timeout_error);
}

TEST(BifurcationAnnealer, JournalResumeIsBitIdentical) {
  const auto problem = problems::make_maxcut_problem(
      "sb-journal",
      problems::random_graph(32, 5.0, problems::WeightScheme::kUnit, 8), 16,
      8);
  core::StandardSetup setup;
  setup.iterations = 100;
  const auto annealer = core::make_annealer(core::AnnealerKind::kSbDiscrete,
                                            problem.model, setup);

  const std::string path = testing::TempDir() + "/fecim_sb.journal";
  std::remove(path.c_str());

  core::CampaignConfig config;
  config.runs = 5;
  config.journal_path = path;
  const auto first = core::run_campaign(*annealer, problem, config);

  // Truncate the journal to simulate a kill after three runs, then resume.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << "\n";
  }
  auto resume = config;
  resume.resume = true;
  const auto resumed = core::run_campaign(*annealer, problem, resume);

  ASSERT_EQ(first.per_run.size(), resumed.per_run.size());
  for (std::size_t run = 0; run < first.per_run.size(); ++run) {
    EXPECT_EQ(first.per_run[run].seed, resumed.per_run[run].seed);
    EXPECT_EQ(first.per_run[run].best_energy,
              resumed.per_run[run].best_energy);
    EXPECT_EQ(first.per_run[run].best_spins, resumed.per_run[run].best_spins);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Constructive warm starts
// ---------------------------------------------------------------------------

TEST(WarmStart, GreedyMaxcutBeatsTheExpectedRandomCut) {
  const auto graph = problems::gset_like_instance(80, 13);
  const auto spins = problems::greedy_maxcut_spins(graph);
  ASSERT_EQ(spins.size(), graph.num_vertices());
  EXPECT_TRUE(ising::is_valid_spins(spins));
  // A random bipartition cuts half the weight in expectation; the greedy
  // construction is strictly better by the derandomized argument.
  EXPECT_GT(problems::cut_value(graph, spins), 0.5 * graph.total_weight());
  // Deterministic: same instance, same configuration.
  EXPECT_EQ(problems::greedy_maxcut_spins(graph), spins);
}

TEST(WarmStart, DsaturColoringIsOneHotAndDecodes) {
  const auto graph =
      problems::random_graph(16, 2.5, problems::WeightScheme::kUnit, 2);
  const auto problem = problems::make_coloring_problem("ws-color", graph);
  ASSERT_TRUE(problem.warm_start != nullptr);
  const auto spins = problem.warm_start();
  ASSERT_EQ(spins.size(), problem.model->num_spins());
  EXPECT_EQ(spins.back(), ising::Spin{1});  // ancilla pinned

  // Exactly one assigned bit per vertex group (valid one-hot assignment;
  // x = 1 is spin -1 in the project's QUBO convention).
  const std::size_t k = (spins.size() - 1) / graph.num_vertices();
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    int hot = 0;
    for (std::size_t c = 0; c < k; ++c)
      hot += spins[v * k + c] == ising::Spin{-1};
    EXPECT_EQ(hot, 1) << "vertex " << v;
  }
  // DSatur within the greedy palette is conflict-free on this instance, so
  // the decoded warm start is already feasible.
  const auto solution = problem.decode(spins);
  EXPECT_TRUE(solution.feasible);
  EXPECT_EQ(solution.violations, 0.0);
}

TEST(WarmStart, FactoryThreadsInitialSpinsToEveryKind) {
  const auto problem = problems::make_maxcut_problem(
      "ws-factory",
      problems::random_graph(20, 4.0, problems::WeightScheme::kUnit, 5), 8,
      5);
  const auto warm = std::make_shared<const ising::SpinVector>(
      problem.warm_start());
  const double warm_energy = problem.model->energy(*warm);

  core::StandardSetup setup;
  setup.iterations = 1;
  setup.initial_spins = warm;
  const core::AnnealerKind kinds[] = {
      core::AnnealerKind::kThisWorkIdeal, core::AnnealerKind::kCimFpga,
      core::AnnealerKind::kMesa, core::AnnealerKind::kSbBallistic,
      core::AnnealerKind::kSbDiscrete};
  for (const auto kind : kinds) {
    const auto annealer = core::make_annealer(kind, problem.model, setup);
    const auto result = annealer->run(2);
    // One iteration from the warm incumbent can only hold or improve it.
    EXPECT_LE(result.best_energy, warm_energy)
        << core::annealer_kind_name(kind);
  }
}

}  // namespace
