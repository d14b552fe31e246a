// Campaign runner: instance bundling, statistics, parallel determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "core/annealer_factory.hpp"
#include "core/runner.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"

namespace {

using namespace fecim;

problems::Graph small_graph(std::uint64_t seed) {
  return problems::random_graph(48, 6.0, problems::WeightScheme::kUnit, seed);
}

core::ProblemInstance small_instance(std::uint64_t seed) {
  return problems::make_maxcut_problem("test", small_graph(seed), 32, seed);
}

TEST(Runner, InstanceBundleIsConsistent) {
  const double total_weight = small_graph(1).total_abs_weight();
  const auto instance = small_instance(1);
  EXPECT_EQ(instance.family, "maxcut");
  EXPECT_EQ(instance.summary.rfind("48 vertices, ", 0), 0u);
  EXPECT_EQ(instance.model->num_spins(), 48u);
  EXPECT_GT(instance.reference_objective, 0.0);
  EXPECT_LE(instance.reference_objective, total_weight);
}

TEST(Runner, ToroidalReferenceIsCertified) {
  const auto instance = problems::make_maxcut_problem(
      "torus",
      problems::toroidal_grid(6, 8, problems::WeightScheme::kUnit, 2), 1);
  EXPECT_DOUBLE_EQ(instance.reference_objective, 96.0);  // every edge cut
}

TEST(Runner, CampaignAggregatesRuns) {
  const auto instance = small_instance(3);
  core::StandardSetup setup;
  setup.iterations = 400;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, instance.model, setup);
  core::CampaignConfig config;
  config.runs = 8;
  const auto result = core::run_campaign(*annealer, instance, config);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_EQ(result.objective.count(), 8u);
  EXPECT_GT(result.objective.mean(), 0.0);
  EXPECT_LE(result.normalized.max(), 1.0 + 1e-9);
  EXPECT_GE(result.success_rate, 0.0);
  EXPECT_LE(result.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(result.feasible_rate, 1.0);  // every bipartition is a cut
  EXPECT_EQ(result.per_run.size(), 8u);
  ASSERT_LT(result.best_run, result.per_run.size());
  EXPECT_DOUBLE_EQ(result.per_run[result.best_run].solution.objective,
                   result.objective.max());
  EXPECT_EQ(result.total_ledger.iterations, 8u * 400u);
  EXPECT_GT(result.energy.mean(), 0.0);
  EXPECT_GT(result.time.mean(), 0.0);
}

TEST(Runner, ThreadCountDoesNotChangeResults) {
  const auto instance = small_instance(4);
  core::StandardSetup setup;
  setup.iterations = 200;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, instance.model, setup);
  core::CampaignConfig serial;
  serial.runs = 6;
  serial.threads = 1;
  core::CampaignConfig parallel = serial;
  parallel.threads = 4;
  const auto a = core::run_campaign(*annealer, instance, serial);
  const auto b = core::run_campaign(*annealer, instance, parallel);
  EXPECT_DOUBLE_EQ(a.objective.mean(), b.objective.mean());
  EXPECT_DOUBLE_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.total_ledger.adc_conversions, b.total_ledger.adc_conversions);
}

TEST(Runner, SuccessThresholdIsRespected) {
  const auto instance = small_instance(5);
  core::StandardSetup setup;
  setup.iterations = 600;
  const auto annealer =
      core::make_annealer(core::AnnealerKind::kThisWork, instance.model, setup);
  core::CampaignConfig lenient;
  lenient.runs = 6;
  lenient.success_threshold = 0.05;  // trivially reachable
  core::CampaignConfig impossible = lenient;
  impossible.success_threshold = 1.01;  // beyond the reference
  EXPECT_DOUBLE_EQ(
      core::run_campaign(*annealer, instance, lenient).success_rate,
      1.0);
  EXPECT_DOUBLE_EQ(
      core::run_campaign(*annealer, instance, impossible).success_rate,
      0.0);
}

TEST(Runner, EnergySplitsSumToTotal) {
  const auto instance = small_instance(6);
  core::StandardSetup setup;
  setup.iterations = 100;
  const auto baseline =
      core::make_annealer(core::AnnealerKind::kCimFpga, instance.model, setup);
  core::CampaignConfig config;
  config.runs = 3;
  const auto result = core::run_campaign(*baseline, instance, config);
  // ADC + e^x dominate; they must not exceed the total.
  EXPECT_LE(result.adc_energy.mean() + result.exp_energy.mean(),
            result.energy.mean() + 1e-18);
  EXPECT_GT(result.exp_energy.mean(), 0.0);
}

}  // namespace
