// Annealer behaviour: exact optima on brute-forceable instances, ledger
// accounting, determinism, trace recording, MESA's epochs, factory wiring.
#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "core/annealer_factory.hpp"
#include "core/direct_annealer.hpp"
#include "core/insitu_annealer.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"

namespace {

using namespace fecim;
using core::AnnealerKind;
using core::DirectEAnnealer;
using core::DirectEConfig;
using core::InSituCimAnnealer;
using core::InSituConfig;

std::shared_ptr<const ising::IsingModel> small_model(std::uint64_t seed,
                                                     std::size_t n = 14) {
  const auto graph =
      problems::random_graph(n, 4.0, problems::WeightScheme::kUnit, seed);
  return std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(graph));
}

TEST(InSituAnnealer, FindsExactOptimumOnSmallInstances) {
  const auto model = small_model(1);
  const auto [spins, optimum] = model->brute_force_ground_state();

  InSituConfig config;
  config.iterations = 3000;
  config.flips_per_iteration = 2;
  const InSituCimAnnealer annealer(model, config);
  int hits = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = annealer.run(seed);
    EXPECT_GE(result.best_energy, optimum - 1e-9);
    hits += std::fabs(result.best_energy - optimum) < 1e-9;
  }
  EXPECT_GE(hits, 8);  // near-certain on a 14-spin instance
}

TEST(InSituAnnealer, DeterministicPerSeed) {
  const auto model = small_model(2, 24);
  InSituConfig config;
  config.iterations = 500;
  const InSituCimAnnealer annealer(model, config);
  const auto a = annealer.run(7);
  const auto b = annealer.run(7);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.final_spins, b.final_spins);
  EXPECT_EQ(a.ledger.adc_conversions, b.ledger.adc_conversions);
}

TEST(InSituAnnealer, LedgerAccountingPerIteration) {
  const auto model = small_model(3, 32);
  InSituConfig config;
  config.iterations = 200;
  config.flips_per_iteration = 2;
  config.engine = InSituConfig::EngineKind::kIdeal;
  const InSituCimAnnealer annealer(model, config);
  const auto result = annealer.run(1);
  EXPECT_EQ(result.ledger.iterations, 200u);
  // 2 row passes x t x bits (single plane for unit weights).
  EXPECT_EQ(result.ledger.adc_conversions, 200u * 2u * 2u * 8u);
  EXPECT_GE(result.ledger.mux_slot_cycles, 400u);  // >= 2 per iteration
  EXPECT_GT(result.ledger.bg_dac_updates, 0u);
  EXPECT_EQ(result.ledger.exp_evaluations, 0u);  // no e^x unit in this work
  EXPECT_EQ(result.ledger.spin_updates, result.accepted_moves * 2u);
}

TEST(InSituAnnealer, EnergyBookkeepingMatchesRecomputation) {
  const auto model = small_model(4, 40);
  InSituConfig config;
  config.iterations = 300;
  const InSituCimAnnealer annealer(model, config);
  const auto result = annealer.run(3);
  EXPECT_NEAR(result.final_energy, model->energy(result.final_spins), 1e-9);
  EXPECT_NEAR(result.best_energy, model->energy(result.best_spins), 1e-9);
  EXPECT_LE(result.best_energy, result.final_energy + 1e-9);
}

TEST(InSituAnnealer, TraceRecordsRequestedStride) {
  const auto model = small_model(5, 20);
  InSituConfig config;
  config.iterations = 100;
  config.trace.enabled = true;
  config.trace.stride = 10;
  const InSituCimAnnealer annealer(model, config);
  const auto result = annealer.run(1);
  EXPECT_EQ(result.trajectory.size(), 10u);
  EXPECT_EQ(result.ledger_trajectory.size(), 10u);
  // Cumulative ledger snapshots are monotone.
  for (std::size_t i = 1; i < result.ledger_trajectory.size(); ++i) {
    EXPECT_GE(result.ledger_trajectory[i].ledger.adc_conversions,
              result.ledger_trajectory[i - 1].ledger.adc_conversions);
  }
}

TEST(InSituAnnealer, HandlesFieldsViaAncilla) {
  // A model with fields must be folded first; the annealer then pins the
  // ancilla and still reaches the true optimum.
  linalg::CsrMatrix::Builder builder(6, 6);
  builder.add_symmetric(0, 1, 1.0);
  builder.add_symmetric(2, 3, -1.5);
  builder.add_symmetric(4, 5, 0.5);
  const ising::IsingModel with_fields(builder.build(),
                                      {0.3, -0.7, 0.2, 0.0, -0.4, 0.1});
  const auto folded = std::make_shared<const ising::IsingModel>(
      with_fields.with_ancilla());
  const auto [best, optimum] = folded->brute_force_ground_state();

  InSituConfig config;
  config.iterations = 2000;
  const InSituCimAnnealer annealer(folded, config);
  const auto result = annealer.run(11);
  EXPECT_EQ(result.best_spins[folded->ancilla_index()], 1);
  EXPECT_NEAR(result.best_energy, optimum, 1e-9);
}

TEST(InSituAnnealer, RejectsModelsWithRawFields) {
  linalg::CsrMatrix::Builder builder(3, 3);
  builder.add_symmetric(0, 1, 1.0);
  const auto bad = std::make_shared<const ising::IsingModel>(
      builder.build(), std::vector<double>{1.0, 0.0, 0.0});
  EXPECT_THROW(InSituCimAnnealer(bad, InSituConfig{}),
               fecim::contract_error);
}

TEST(DirectEAnnealer, FindsExactOptimumOnSmallInstances) {
  const auto model = small_model(6);
  const auto [spins, optimum] = model->brute_force_ground_state();
  DirectEConfig config;
  config.iterations = 3000;
  config.schedule_kind = core::ClassicSchedule::Kind::kGeometric;
  const DirectEAnnealer annealer(model, config);
  int hits = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    hits += std::fabs(annealer.run(seed).best_energy - optimum) < 1e-9;
  EXPECT_GE(hits, 8);
}

TEST(DirectEAnnealer, FullArrayLedger) {
  const auto model = small_model(7, 32);
  DirectEConfig config;
  config.iterations = 100;
  const DirectEAnnealer annealer(model, config);
  const auto result = annealer.run(1);
  EXPECT_EQ(result.ledger.adc_conversions, 100u * 2u * 32u * 8u);
  EXPECT_EQ(result.ledger.mux_slot_cycles, 100u * 16u);
  // Pipelined e^x unit: one evaluation per iteration.
  EXPECT_EQ(result.ledger.exp_evaluations, 100u);
}

TEST(DirectEAnnealer, ConditionalExpUnitChargesOnlyUphill) {
  const auto model = small_model(8, 32);
  DirectEConfig config;
  config.iterations = 500;
  config.pipelined_exp_unit = false;
  const DirectEAnnealer annealer(model, config);
  const auto result = annealer.run(1);
  EXPECT_LT(result.ledger.exp_evaluations, 500u);
  EXPECT_GT(result.ledger.exp_evaluations, 0u);
}

TEST(DirectEAnnealer, AutoCalibratesStartTemperature) {
  const auto model = small_model(9, 50);
  const DirectEAnnealer annealer(model, DirectEConfig{});
  EXPECT_GT(annealer.calibrated_t_start(), 0.0);
  DirectEConfig manual;
  manual.t_start = 42.0;
  const DirectEAnnealer fixed(model, manual);
  EXPECT_DOUBLE_EQ(fixed.calibrated_t_start(), 42.0);
}

TEST(Mesa, ReachesOptimaAndRunsEpochs) {
  const auto model = small_model(10);
  const auto [spins, optimum] = model->brute_force_ground_state();
  core::StandardSetup setup;
  setup.iterations = 4000;
  const auto annealer = core::make_annealer(AnnealerKind::kMesa, model, setup);
  const auto result = annealer->run(5);
  EXPECT_NEAR(result.best_energy, optimum, 1e-9);
  EXPECT_EQ(result.ledger.iterations, 4000u);
}

TEST(Mesa, RunsExactlyItsBudget) {
  // Budgets below the epoch count run one iteration per epoch, and the
  // remainder of an uneven split goes to the first epochs.
  const auto model = small_model(13, 20);
  core::StandardSetup setup;
  for (const std::size_t budget : {1u, 2u, 3u, 5u, 403u}) {
    setup.iterations = budget;
    const auto annealer =
        core::make_annealer(AnnealerKind::kMesa, model, setup);
    EXPECT_EQ(annealer->run(1).ledger.iterations, budget);
  }
  // A zero budget is rejected at run time, as for the single-epoch kinds.
  setup.iterations = 0;
  for (const auto kind : {AnnealerKind::kMesa, AnnealerKind::kCimFpga}) {
    const auto annealer = core::make_annealer(kind, model, setup);
    EXPECT_THROW(annealer->run(1), contract_error);
  }
}

TEST(Factory, BuildsAllKinds) {
  const auto model = small_model(11, 20);
  core::StandardSetup setup;
  setup.iterations = 50;
  for (const auto kind :
       {AnnealerKind::kThisWork, AnnealerKind::kThisWorkIdeal,
        AnnealerKind::kCimFpga, AnnealerKind::kCimAsic, AnnealerKind::kMesa}) {
    const auto annealer = core::make_annealer(kind, model, setup);
    ASSERT_NE(annealer, nullptr);
    const auto result = annealer->run(1);
    EXPECT_EQ(result.ledger.iterations, 50u);
  }
}

TEST(Factory, ExpUnitsWiredCorrectly) {
  const auto model = small_model(12, 20);
  core::StandardSetup setup;
  setup.iterations = 10;
  EXPECT_EQ(core::make_annealer(AnnealerKind::kThisWork, model, setup)
                ->exp_unit(),
            cost::ExpUnit::kNone);
  EXPECT_EQ(core::make_annealer(AnnealerKind::kCimFpga, model, setup)
                ->exp_unit(),
            cost::ExpUnit::kFpga);
  EXPECT_EQ(core::make_annealer(AnnealerKind::kCimAsic, model, setup)
                ->exp_unit(),
            cost::ExpUnit::kAsic);
}

TEST(Factory, NamesAreStable) {
  EXPECT_STREQ(core::annealer_kind_name(AnnealerKind::kThisWork), "This Work");
  EXPECT_STREQ(core::annealer_kind_name(AnnealerKind::kCimFpga), "CiM/FPGA");
  EXPECT_STREQ(core::annealer_kind_name(AnnealerKind::kCimAsic), "CiM/ASIC");
}

}  // namespace
