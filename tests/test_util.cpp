// Tests for fecim::util -- RNG determinism and distributions, statistics,
// tables, parallel_for.
#include <gtest/gtest.h>

#include <cmath>

#include <set>
#include <thread>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using fecim::util::Rng;
using fecim::util::RunningStats;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b();
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::array<int, 7> counts{};
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) EXPECT_NEAR(c, kDraws / 7, kDraws / 7 * 0.1);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SpinIsBalanced) {
  Rng rng(23);
  int sum = 0;
  for (int i = 0; i < 100000; ++i) sum += rng.spin();
  EXPECT_NEAR(sum / 100000.0, 0.0, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(29);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(50, 10);
    ASSERT_EQ(sample.size(), 10u);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const auto v : sample) EXPECT_LT(v, 50u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(8, 8);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(37);
  std::array<int, 10> counts{};
  constexpr int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i)
    for (const auto v : rng.sample_without_replacement(10, 3)) ++counts[v];
  for (const int c : counts)
    EXPECT_NEAR(c, kTrials * 3 / 10, kTrials * 3 / 10 * 0.1);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(41);
  Rng child_a = parent.split(0);
  Rng child_b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child_a() == child_b();
  EXPECT_LT(same, 4);
}

TEST(Rng, SplitIsDeterministic) {
  const Rng parent(43);
  Rng a = parent.split(5);
  Rng b = parent.split(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8u);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all;
  RunningStats left;
  RunningStats right;
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-1.0, 1.0);
    all.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.count(), all.count());
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> values{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(fecim::util::median(values), 3.0);
  EXPECT_DOUBLE_EQ(fecim::util::percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(fecim::util::percentile(values, 100), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> values{0, 10};
  EXPECT_DOUBLE_EQ(fecim::util::percentile(values, 25), 2.5);
}

TEST(Table, AlignmentAndCsv) {
  fecim::util::Table table({"name", "value"});
  table.row().add("alpha").add(1.5, 1);
  table.row().add("b").add(std::size_t{42});
  const auto text = table.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_EQ(table.csv(), "name,value\nalpha,1.5\nb,42\n");
}

TEST(Table, RejectsTooManyCells) {
  fecim::util::Table table({"only"});
  table.row().add("x");
  EXPECT_THROW(table.add("overflow"), fecim::contract_error);
}

TEST(SiFormat, PicksSensiblePrefixes) {
  EXPECT_EQ(fecim::util::si_format(2.5e-9, "J"), "2.500 nJ");
  EXPECT_EQ(fecim::util::si_format(3.2e-3, "s"), "3.200 ms");
  EXPECT_EQ(fecim::util::si_format(1.5e6, "Hz"), "1.500 MHz");
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> counts(1000);
  fecim::util::parallel_for(1000, [&](std::size_t i) { ++counts[i]; }, 4);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      fecim::util::parallel_for(
          8, [](std::size_t i) { if (i == 3) throw std::runtime_error("boom"); },
          2),
      std::runtime_error);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  fecim::util::parallel_for(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelFor, SingleFailureRethrowsOriginalType) {
  // One failing task rethrows the original exception unchanged -- callers
  // catching a specific type (contract_error, run_error, ...) keep working.
  EXPECT_THROW(
      fecim::util::parallel_for(
          8, [](std::size_t i) { if (i == 3) FECIM_EXPECTS(false); }, 2),
      fecim::contract_error);
}

TEST(ParallelFor, ConcurrentFailuresAggregate) {
  // Two tasks rendezvous on an atomic barrier, then both throw: neither
  // can win the old first-exception race, so both messages must survive in
  // the composite parallel_error.
  std::atomic<int> arrived{0};
  try {
    fecim::util::parallel_for(
        2,
        [&](std::size_t i) {
          arrived.fetch_add(1);
          while (arrived.load() < 2) std::this_thread::yield();
          throw std::runtime_error("task " + std::to_string(i) + " failed");
        },
        2);
    FAIL() << "parallel_for should have thrown";
  } catch (const fecim::util::parallel_error& e) {
    EXPECT_EQ(e.failures(), 2u);
    ASSERT_EQ(e.messages().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("2 parallel tasks failed"), std::string::npos);
    EXPECT_NE(what.find("task 0 failed"), std::string::npos);
    EXPECT_NE(what.find("task 1 failed"), std::string::npos);
  }
}

TEST(ParallelFor, PoolSurvivesThrowingJob) {
  // A failed job must leave the shared pool usable: the next parallel_for
  // still visits every index (no stuck workers, no poisoned job slot).
  try {
    fecim::util::parallel_for(
        8, [](std::size_t) { throw std::runtime_error("poison"); }, 4);
  } catch (const std::runtime_error&) {
  }
  std::vector<std::atomic<int>> counts(256);
  fecim::util::parallel_for(256, [&](std::size_t i) { ++counts[i]; }, 4);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Contracts, ExpectsThrowsContractError) {
  EXPECT_THROW(FECIM_EXPECTS(false), fecim::contract_error);
  EXPECT_NO_THROW(FECIM_EXPECTS(true));
}

}  // namespace
