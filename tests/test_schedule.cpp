// Annealing schedules: the tunable-BG ladder and the classic baselines.
#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "core/acceptance.hpp"
#include "core/schedule.hpp"

namespace {

using fecim::core::BgAnnealingSchedule;
using fecim::core::ClassicSchedule;
using Direction = fecim::core::BgAnnealingSchedule::Direction;

TEST(BgSchedule, RampUpStartsLowEndsHigh) {
  BgAnnealingSchedule schedule({{}, 710, {}, Direction::kRampUp});
  EXPECT_DOUBLE_EQ(schedule.at(0).vbg, 0.0);
  EXPECT_NEAR(schedule.at(709).vbg, 0.7, 1e-12);
  EXPECT_NEAR(schedule.at(0).factor, 0.0, 0.02);
  EXPECT_NEAR(schedule.at(709).factor, 1.0, 1e-9);
}

TEST(BgSchedule, PaperLiteralDescendsAndParksAtZero) {
  BgAnnealingSchedule schedule({{}, 710, {}, Direction::kPaperLiteral});
  EXPECT_NEAR(schedule.at(0).vbg, 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(schedule.at(709).vbg, 0.0);
  // "Once V_BG reaches 0 V, it remains at zero".
  EXPECT_DOUBLE_EQ(schedule.at(100000).vbg, 0.0);
}

TEST(BgSchedule, VoltagesOnDacGrid) {
  BgAnnealingSchedule schedule({{}, 1000, {}, Direction::kRampUp});
  for (std::size_t it = 0; it < 1000; it += 13) {
    const double vbg = schedule.at(it).vbg;
    const double steps = vbg / 0.01;
    EXPECT_NEAR(steps, std::round(steps), 1e-9) << "vbg=" << vbg;
  }
}

TEST(BgSchedule, MonotoneInIteration) {
  BgAnnealingSchedule schedule({{}, 5000, {}, Direction::kRampUp});
  double previous = -1.0;
  for (std::size_t it = 0; it < 5000; ++it) {
    const double vbg = schedule.at(it).vbg;
    EXPECT_GE(vbg, previous - 1e-12);
    previous = vbg;
  }
}

TEST(BgSchedule, HoldsLevelsForLongBudgets) {
  // Paper: "T decreases only after a pre-set number of iterations."
  BgAnnealingSchedule schedule({{}, 7100, {}, Direction::kRampUp});
  EXPECT_EQ(schedule.hold_iterations(), 100u);
  EXPECT_DOUBLE_EQ(schedule.at(0).vbg, schedule.at(99).vbg);
  EXPECT_NE(schedule.at(99).vbg, schedule.at(100).vbg);
}

TEST(BgSchedule, ShortBudgetsSkipLevels) {
  BgAnnealingSchedule schedule({{}, 10, {}, Direction::kRampUp});
  EXPECT_DOUBLE_EQ(schedule.at(0).vbg, 0.0);
  EXPECT_NEAR(schedule.at(9).vbg, 0.7, 0.08);  // reaches (close to) the top
}

TEST(BgSchedule, FactorConsistentWithTemperature) {
  BgAnnealingSchedule schedule({{}, 100, {}, Direction::kRampUp});
  for (std::size_t it = 0; it < 100; it += 7) {
    const auto point = schedule.at(it);
    EXPECT_NEAR(point.factor, schedule.factor()(point.temperature), 1e-12);
  }
}

TEST(ClassicSchedule, GeometricEndpoints) {
  ClassicSchedule schedule({100.0, 0.1, 1000, ClassicSchedule::Kind::kGeometric});
  EXPECT_DOUBLE_EQ(schedule.temperature(0), 100.0);
  EXPECT_NEAR(schedule.temperature(999), 0.1, 1e-9);
  EXPECT_NEAR(schedule.temperature(499), std::sqrt(100.0 * 0.1), 0.15);
}

TEST(ClassicSchedule, FixedDecayIgnoresBudget) {
  // The same decay rate regardless of total iterations: short budgets stay
  // hot -- the mechanism behind the baselines' small-budget failures.
  ClassicSchedule schedule(
      {100.0, 0.001, 700, ClassicSchedule::Kind::kFixedDecay, 0.999});
  EXPECT_NEAR(schedule.temperature(700), 100.0 * std::pow(0.999, 700), 1e-6);
  EXPECT_GT(schedule.temperature(700), 49.0);  // still ~half the start temp
  // ...but floors at t_end for long runs.
  EXPECT_DOUBLE_EQ(schedule.temperature(100000), 0.001);
}

TEST(ClassicSchedule, ValidatesConfig) {
  EXPECT_THROW(
      ClassicSchedule({0.0, 0.1, 10, ClassicSchedule::Kind::kGeometric}),
      fecim::contract_error);
  EXPECT_THROW(
      ClassicSchedule({1.0, 2.0, 10, ClassicSchedule::Kind::kGeometric}),
      fecim::contract_error);
}

TEST(Acceptance, FractionalRule) {
  fecim::core::FractionalAcceptance acceptance;
  fecim::util::Rng rng(1);
  // Downhill and zero are always accepted (Alg. 1 line 7).
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(acceptance.accept(-0.5, rng));
    EXPECT_TRUE(acceptance.accept(0.0, rng));
  }
  // E_inc >= 1 can never pass the rand(0,1) comparison.
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(acceptance.accept(1.5, rng));
  // E_inc in (0,1): acceptance probability ~ 1 - E_inc.
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) accepted += acceptance.accept(0.3, rng);
  EXPECT_NEAR(accepted / 20000.0, 0.7, 0.02);
}

TEST(Acceptance, MetropolisRule) {
  fecim::core::MetropolisAcceptance acceptance;
  fecim::util::Rng rng(2);
  EXPECT_TRUE(acceptance.accept(-1.0, 1.0, rng).accepted);
  EXPECT_FALSE(acceptance.accept(-1.0, 1.0, rng).exp_evaluated);

  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto decision = acceptance.accept(1.0, 2.0, rng);
    EXPECT_TRUE(decision.exp_evaluated);
    accepted += decision.accepted;
  }
  EXPECT_NEAR(accepted / 20000.0, std::exp(-0.5), 0.02);

  // Zero temperature rejects all uphill moves.
  EXPECT_FALSE(acceptance.accept(0.1, 0.0, rng).accepted);
}

}  // namespace
