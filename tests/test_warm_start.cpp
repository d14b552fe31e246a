// Constructive warm starts (problems/warm_start.hpp): the four heuristics
// added for knapsack, partition, TSP, and generic QUBO, plus the contract
// that every built-in problem family exposes a warm_start hook producing a
// decodable full-length spin vector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ising/qubo.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/knapsack.hpp"
#include "problems/partition.hpp"
#include "problems/qubo.hpp"
#include "problems/tsp.hpp"
#include "problems/warm_start.hpp"

namespace {

using namespace fecim;

/// x = (1 - sigma) / 2: spin -1 is a set bit.
std::vector<std::uint8_t> bits_from_spins(const ising::SpinVector& spins,
                                          std::size_t count) {
  std::vector<std::uint8_t> x(count, 0);
  for (std::size_t i = 0; i < count; ++i) x[i] = spins[i] < 0 ? 1 : 0;
  return x;
}

TEST(WarmStart, GreedyKnapsackMatchesGreedyReferenceAndIsFeasible) {
  const auto instance = problems::random_knapsack(12, 5);
  const auto encoding = problems::knapsack_to_qubo(instance);
  const auto spins = problems::greedy_knapsack_spins(instance, encoding);
  // Item bits + slack bits + the with_ancilla slot, ancilla pinned to +1.
  ASSERT_EQ(spins.size(),
            encoding.num_items + encoding.num_slack_bits + 1);
  EXPECT_EQ(spins.back(), ising::Spin{1});

  const auto x = bits_from_spins(
      spins, encoding.num_items + encoding.num_slack_bits);
  const auto solution = problems::decode_knapsack(instance, encoding, x);
  EXPECT_TRUE(solution.feasible);
  EXPECT_EQ(solution.value, problems::knapsack_greedy_value(instance));
}

TEST(WarmStart, DifferencingSolvesEasyPartitionExactly) {
  // Karmarkar-Karp on {1, 2, 3, 4}: {4,1} vs {3,2} -- perfect balance.
  const std::vector<double> numbers{1, 2, 3, 4};
  const auto spins = problems::differencing_partition_spins(numbers);
  ASSERT_EQ(spins.size(), numbers.size());
  EXPECT_EQ(problems::partition_imbalance(numbers, spins), 0.0);
}

TEST(WarmStart, DifferencingBeatsOrMatchesGreedyOnRandomNumbers) {
  const auto numbers = problems::random_partition_numbers(24, 17);
  const auto spins = problems::differencing_partition_spins(numbers);
  ASSERT_EQ(spins.size(), numbers.size());
  for (const auto spin : spins) EXPECT_TRUE(spin == 1 || spin == -1);
  EXPECT_LE(problems::partition_imbalance(numbers, spins),
            problems::greedy_partition_imbalance(numbers));
}

TEST(WarmStart, DifferencingHandlesDegenerateSizes) {
  EXPECT_TRUE(problems::differencing_partition_spins({}).empty());
  const std::vector<double> one{5.0};
  const auto spins = problems::differencing_partition_spins(one);
  ASSERT_EQ(spins.size(), 1u);
  EXPECT_EQ(problems::partition_imbalance(one, spins), 5.0);
}

TEST(WarmStart, NearestNeighborTspIsAValidTourFromCityZero) {
  const auto instance = problems::random_tsp(6, 23);
  const auto encoding = problems::tsp_to_qubo(instance);
  const auto spins = problems::nearest_neighbor_tsp_spins(instance);
  const std::size_t n = instance.num_cities();
  ASSERT_EQ(spins.size(), n * n + 1);
  EXPECT_EQ(spins.back(), ising::Spin{1});

  const auto tour =
      problems::decode_tsp(instance, encoding, bits_from_spins(spins, n * n));
  EXPECT_TRUE(tour.valid);
  EXPECT_EQ(tour.violations, 0u);
  ASSERT_EQ(tour.order.size(), n);
  EXPECT_EQ(tour.order[0], 0u);  // construction starts at city 0
  // NN construction alone must not beat the NN + 2-opt reference.
  EXPECT_GE(tour.length, problems::tsp_heuristic(instance).length);
}

TEST(WarmStart, QuboDescentNeverLosesToAllZeros) {
  const auto instance = problems::random_qubo(24, 4.0, 31);
  const auto spins = problems::descent_qubo_spins(instance.model);
  const std::size_t n = instance.model.num_variables();
  ASSERT_EQ(spins.size(), n + 1);
  EXPECT_EQ(spins.back(), ising::Spin{1});

  // Descent starts from all-zeros and only takes improving flips, so its
  // value can never exceed the all-zeros value (the constant term).
  const auto x = bits_from_spins(spins, n);
  EXPECT_LE(instance.model.value(x),
            instance.model.value(std::vector<std::uint8_t>(n, 0)));
}

TEST(WarmStart, EveryBuiltInFamilyExposesADecodableWarmStart) {
  const auto graph =
      problems::random_graph(16, 4.0, problems::WeightScheme::kUnit, 3);
  std::vector<core::ProblemInstance> problems_list;
  problems_list.push_back(problems::make_maxcut_problem("ws-cut", graph, 8, 3));
  problems_list.push_back(problems::make_coloring_problem("ws-col", graph, 4));
  problems_list.push_back(problems::make_knapsack_problem(
      "ws-knap", problems::random_knapsack(10, 7)));
  problems_list.push_back(problems::make_partition_problem(
      "ws-part", problems::random_partition_numbers(12, 9)));
  problems_list.push_back(
      problems::make_tsp_problem("ws-tsp", problems::random_tsp(5, 13)));
  problems_list.push_back(problems::make_qubo_problem(
      "ws-qubo", problems::random_qubo(16, 4.0, 19), 8));

  for (const auto& problem : problems_list) {
    SCOPED_TRACE(problem.family);
    ASSERT_TRUE(problem.warm_start) << problem.family;
    const auto spins = problem.warm_start();
    ASSERT_EQ(spins.size(), problem.model->num_spins());
    const auto solution = problem.decode(spins);
    EXPECT_TRUE(std::isfinite(solution.objective));
    // The constructive heuristics build feasible configurations for every
    // family except coloring, where DSatur clamped to a fixed palette may
    // accept conflicts the annealer then repairs.
    if (problem.family != "coloring") {
      EXPECT_TRUE(solution.feasible);
    }
  }
}

TEST(WarmStart, MaximizeQuboWarmStartUsesTheAnnealedSense) {
  // For a maximize instance the hook must descend on the negated model:
  // its decoded objective (original units) can then only improve on the
  // all-zeros assignment.
  auto instance = problems::random_qubo(16, 4.0, 37);
  instance.maximize = true;
  const std::size_t n = instance.model.num_variables();
  const double zeros =
      instance.model.value(std::vector<std::uint8_t>(n, 0));
  const auto problem = problems::make_qubo_problem("ws-qmax", instance, 8);
  ASSERT_TRUE(problem.warm_start);
  const auto solution = problem.decode(problem.warm_start());
  EXPECT_GE(solution.objective, zeros);
}

}  // namespace
