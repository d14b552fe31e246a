// Graph container, generators, Gset I/O, coloring, knapsack, partitioning.
#include <gtest/gtest.h>

#include <cmath>

#include <sstream>

#include "util/assert.hpp"
#include "problems/coloring.hpp"
#include "problems/generators.hpp"
#include "problems/graph.hpp"
#include "problems/gset_io.hpp"
#include "problems/knapsack.hpp"
#include "problems/partition.hpp"

namespace {

using namespace fecim::problems;

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(2, 3, -1.0);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 1.0);
  EXPECT_DOUBLE_EQ(g.total_abs_weight(), 3.0);
}

TEST(Graph, ParallelEdgesMerge) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.5);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 3.5);
}

TEST(Graph, ManyParallelEdgesMergeViaHashIndex) {
  // 40k inserts over 200 distinct pairs: instant with the (u,v) hash slot
  // index, minutes with the seed's O(m) merge scan.  Adjacency queries stay
  // coherent with merged weights.
  Graph g(201);
  for (int repeat = 0; repeat < 200; ++repeat)
    for (std::uint32_t v = 1; v <= 200; ++v)
      g.add_edge(0, v, 0.5);
  EXPECT_EQ(g.num_edges(), 200u);
  EXPECT_EQ(g.degree(0), 200u);
  for (std::uint32_t v = 1; v <= 200; ++v) {
    EXPECT_TRUE(g.has_edge(v, 0));
    EXPECT_DOUBLE_EQ(g.edge_weight(0, v), 100.0);
  }
}

TEST(Graph, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), fecim::contract_error);
}

TEST(Graph, AdjacencyConsistent) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(0, 3, 3.0);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  double sum = 0.0;
  for (const double w : g.neighbor_weights(0)) sum += w;
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

TEST(Graph, BipartiteDetection) {
  Graph even_cycle(4);
  for (std::uint32_t i = 0; i < 4; ++i) even_cycle.add_edge(i, (i + 1) % 4);
  EXPECT_TRUE(even_cycle.is_bipartite());

  Graph odd_cycle(5);
  for (std::uint32_t i = 0; i < 5; ++i) odd_cycle.add_edge(i, (i + 1) % 5);
  EXPECT_FALSE(odd_cycle.is_bipartite());
}

TEST(Generators, RandomGraphHitsTargetDensity) {
  const auto g = random_graph(500, 12.0, WeightScheme::kUnit, 42);
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_EQ(g.num_edges(), 3000u);
  EXPECT_NEAR(g.average_degree(), 12.0, 0.01);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(Generators, RandomGraphDeterministicPerSeed) {
  const auto a = random_graph(100, 6.0, WeightScheme::kPlusMinusOne, 7);
  const auto b = random_graph(100, 6.0, WeightScheme::kPlusMinusOne, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edges()[i].u, b.edges()[i].u);
    EXPECT_EQ(a.edges()[i].v, b.edges()[i].v);
    EXPECT_EQ(a.edges()[i].weight, b.edges()[i].weight);
  }
}

TEST(Generators, PlusMinusWeightsAreBalanced) {
  const auto g = random_graph(400, 20.0, WeightScheme::kPlusMinusOne, 3);
  int positive = 0;
  for (const auto& e : g.edges()) positive += e.weight > 0;
  EXPECT_NEAR(positive, static_cast<int>(g.num_edges()) / 2,
              static_cast<int>(g.num_edges()) / 8);
}

TEST(Generators, RegularGraphHasUniformDegree) {
  const auto g = regular_graph(60, 4, WeightScheme::kUnit, 5);
  for (std::uint32_t v = 0; v < 60; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, ToroidalGridStructure) {
  const auto g = toroidal_grid(6, 8, WeightScheme::kUnit, 1);
  EXPECT_EQ(g.num_vertices(), 48u);
  EXPECT_EQ(g.num_edges(), 96u);  // 2 edges per vertex
  for (std::uint32_t v = 0; v < 48; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(g.is_bipartite());  // both dimensions even
}

TEST(Generators, OddToroidalGridIsNotBipartite) {
  EXPECT_FALSE(toroidal_grid(5, 7, WeightScheme::kUnit, 1).is_bipartite());
}

TEST(Generators, GsetLikeFamilies) {
  EXPECT_EQ(gset_like_instance(800, 1).num_vertices(), 800u);
  EXPECT_EQ(gset_like_instance(1000, 1).num_vertices(), 1000u);
  EXPECT_EQ(gset_like_instance(2000, 1).num_vertices(), 2000u);
  const auto toroidal = gset_like_instance(3000, 1);
  EXPECT_EQ(toroidal.num_vertices(), 3000u);
  EXPECT_TRUE(toroidal.is_bipartite());
}

TEST(Generators, RandomGraphFitsMatchesTheEdgeBudget) {
  // round(n * d / 2) edges must fit among n (n - 1) / 2 pairs.
  EXPECT_FALSE(fecim::problems::random_graph_fits(12, 12.0));  // 72 > 66
  EXPECT_TRUE(fecim::problems::random_graph_fits(13, 12.0));   // 78 = 78
  EXPECT_FALSE(fecim::problems::random_graph_fits(3, 2.5));    // 4 > 3
  EXPECT_FALSE(fecim::problems::random_graph_fits(6, 6.0));    // 18 > 15
  EXPECT_FALSE(fecim::problems::random_graph_fits(1, 0.5));
  EXPECT_TRUE(fecim::problems::random_graph_fits(4, 2.5));
  EXPECT_THROW((void)fecim::problems::random_graph(
                   12, 12.0, fecim::problems::WeightScheme::kUnit, 1),
               fecim::contract_error);
  EXPECT_EQ(fecim::problems::gset_like_degree(12), 12.0);
  EXPECT_EQ(fecim::problems::gset_like_degree(800), 48.0);
  EXPECT_EQ(fecim::problems::gset_like_degree(3000), 0.0);
}

TEST(GsetIo, RoundTrip) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(3, 4, -2.0);
  std::ostringstream buffer;
  write_gset(g, buffer);
  const auto parsed = read_gset(buffer.str());
  EXPECT_EQ(parsed.num_vertices(), 5u);
  EXPECT_EQ(parsed.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(parsed.edge_weight(3, 4), -2.0);
}

TEST(GsetIo, ParsesCanonicalFormat) {
  const auto g = read_gset("3 2\n1 2 1\n2 3 -1\n");
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), -1.0);
}

TEST(GsetIo, RejectsMalformedInput) {
  EXPECT_THROW(read_gset("abc"), fecim::contract_error);
  EXPECT_THROW(read_gset("3 2\n1 2 1\n"), fecim::contract_error);
  EXPECT_THROW(read_gset("2 1\n1 5 1\n"), fecim::contract_error);
}

TEST(Coloring, QuboZeroIffValid) {
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const auto encoding = coloring_to_qubo(triangle, 3);

  // Valid 3-coloring: colors 0,1,2 one-hot.
  std::vector<std::uint8_t> valid(9, 0);
  valid[0 * 3 + 0] = 1;
  valid[1 * 3 + 1] = 1;
  valid[2 * 3 + 2] = 1;
  EXPECT_NEAR(encoding.qubo.value(valid), 0.0, 1e-12);
  EXPECT_EQ(coloring_violations(triangle, encoding, valid), 0u);

  // Monochromatic edge.
  std::vector<std::uint8_t> invalid(9, 0);
  invalid[0 * 3 + 0] = 1;
  invalid[1 * 3 + 0] = 1;
  invalid[2 * 3 + 2] = 1;
  EXPECT_GT(encoding.qubo.value(invalid), 0.5);
  EXPECT_EQ(coloring_violations(triangle, encoding, invalid), 1u);
}

TEST(Coloring, PenalizesNonOneHot) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto encoding = coloring_to_qubo(g, 2);
  std::vector<std::uint8_t> empty(4, 0);  // vertex with no color
  EXPECT_GT(encoding.qubo.value(empty), 0.5);
  EXPECT_EQ(coloring_violations(g, encoding, empty), 2u);
}

TEST(Coloring, DecodeMarksInvalidVertices) {
  Graph g(1);
  // Single vertex graph needs >= 1 vertex; build 2 to allow an edge-free case.
  Graph g2(2);
  const auto encoding = coloring_to_qubo(g2, 2);
  std::vector<std::uint8_t> both(4, 0);
  both[0] = 1;
  both[1] = 1;  // vertex 0 has two colors
  both[2] = 1;
  const auto colors = decode_coloring(encoding, both);
  EXPECT_EQ(colors[0], 2u);  // invalid marker == num_colors
  EXPECT_EQ(colors[1], 0u);
}

TEST(Coloring, DecodeMarksZeroHotVertices) {
  // The invalid marker (== num_colors) must cover the zero-hot case too,
  // not only multi-hot groups.
  Graph g(3);
  const auto encoding = coloring_to_qubo(g, 3);
  std::vector<std::uint8_t> x(9, 0);
  x[0 * 3 + 1] = 1;  // vertex 0: single-hot, color 1
  // vertex 1: zero-hot
  x[2 * 3 + 0] = 1;
  x[2 * 3 + 2] = 1;  // vertex 2: double-hot
  const auto colors = decode_coloring(encoding, x);
  EXPECT_EQ(colors[0], 1u);
  EXPECT_EQ(colors[1], 3u);  // invalid marker == num_colors
  EXPECT_EQ(colors[2], 3u);
  // Each marked vertex counts as exactly one violation (edge-free graph).
  EXPECT_EQ(coloring_violations(g, encoding, x), 2u);
}

TEST(Coloring, GreedyIsValid) {
  const auto g = random_graph(80, 6.0, WeightScheme::kUnit, 9);
  const auto colors = greedy_coloring(g);
  for (const auto& e : g.edges()) EXPECT_NE(colors[e.u], colors[e.v]);
}

TEST(Knapsack, EncodingRecoversOptimum) {
  // Items: values 10, 7, 4; weights 5, 4, 3; capacity 7 -> best = 11 (7+4).
  const KnapsackInstance instance{{{10, 5}, {7, 4}, {4, 3}}, 7};
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(instance), 11.0);

  const auto encoding = knapsack_to_qubo(instance);
  const auto ising = encoding.qubo.to_ising();
  const auto [spins, energy] = ising.brute_force_ground_state();
  const auto x = fecim::ising::binary_from_spins(spins);
  const auto solution = decode_knapsack(instance, encoding, x);
  EXPECT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.value, 11.0);
  // At the optimum with matching slack, H = -value.
  EXPECT_NEAR(energy, -11.0, 1e-9);
}

TEST(Knapsack, OptimalValueFloorsFractionalCapacity) {
  // --capacity 37.5 style inputs used to die on a contract check; integral
  // weights cannot use the fraction, so flooring preserves the optimum.
  const KnapsackInstance fractional{{{10, 5}, {7, 4}, {4, 3}}, 7.5};
  const KnapsackInstance floored{{{10, 5}, {7, 4}, {4, 3}}, 7.0};
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(fractional),
                   knapsack_optimal_value(floored));
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(fractional), 11.0);
}

TEST(Knapsack, OptimalValueFallsBackToGreedyForFractionalWeights) {
  const KnapsackInstance instance{{{10, 2.5}, {7, 4}, {4, 3}}, 7};
  EXPECT_NO_THROW(knapsack_optimal_value(instance));
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(instance),
                   knapsack_greedy_value(instance));
  // The greedy bound is itself feasible, so it never exceeds total value.
  EXPECT_LE(knapsack_greedy_value(instance), 21.0);
}

TEST(Knapsack, OptimalValueCapsDpTableSize) {
  // A file-supplied capacity like 1e15 must degrade to the greedy bound,
  // not abort on a petabyte DP allocation.
  const KnapsackInstance huge{{{1, 1}}, 1e15};
  EXPECT_NO_THROW(knapsack_optimal_value(huge));
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(huge), knapsack_greedy_value(huge));
  EXPECT_DOUBLE_EQ(knapsack_optimal_value(huge), 1.0);
}

TEST(Knapsack, SlackCoversCapacityExactly) {
  const KnapsackInstance instance{{{1, 1}}, 13};
  const auto encoding = knapsack_to_qubo(instance);
  double slack_total = 0.0;
  for (const double c : encoding.slack_coefficients) slack_total += c;
  EXPECT_DOUBLE_EQ(slack_total, 13.0);
}

TEST(Knapsack, InfeasibleSelectionsDecodeAsInfeasible) {
  const KnapsackInstance instance{{{5, 6}, {5, 6}}, 7};
  const auto encoding = knapsack_to_qubo(instance);
  std::vector<std::uint8_t> x(2 + encoding.num_slack_bits, 0);
  x[0] = 1;
  x[1] = 1;  // weight 12 > 7
  const auto solution = decode_knapsack(instance, encoding, x);
  EXPECT_FALSE(solution.feasible);
}

TEST(Knapsack, SlackRoundTripFeasibility) {
  // Any feasible selection plus the greedy (largest-first) slack encoding of
  // its residual capacity reaches the penalty minimum: H == -value.  The
  // decode strips the slack bits and reproduces the selection.
  const KnapsackInstance instance{{{10, 5}, {7, 4}, {4, 3}, {6, 5}}, 11};
  const auto encoding = knapsack_to_qubo(instance);

  const std::vector<std::uint8_t> selection{1, 0, 1, 0};  // weight 8, value 14
  double weight = 0.0;
  double value = 0.0;
  for (std::size_t i = 0; i < selection.size(); ++i) {
    if (!selection[i]) continue;
    weight += instance.items[i].weight;
    value += instance.items[i].value;
  }
  ASSERT_LE(weight, instance.capacity);

  // Greedy largest-first representation: the coefficients 1,2,4,...,residual
  // cover every integer in [0, capacity], so the residual always encodes.
  std::vector<std::uint8_t> x(selection);
  x.resize(encoding.num_items + encoding.num_slack_bits, 0);
  double residual = instance.capacity - weight;
  for (std::size_t j = encoding.num_slack_bits; j-- > 0;) {
    const double c = encoding.slack_coefficients[j];
    if (c <= residual + 1e-9) {
      x[encoding.num_items + j] = 1;
      residual -= c;
    }
  }
  EXPECT_NEAR(residual, 0.0, 1e-9);

  EXPECT_NEAR(encoding.qubo.value(x), -value, 1e-9);
  const auto solution = decode_knapsack(instance, encoding, x);
  EXPECT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.value, value);
  EXPECT_DOUBLE_EQ(solution.weight, weight);
  ASSERT_EQ(solution.selection.size(), selection.size());
  for (std::size_t i = 0; i < selection.size(); ++i)
    EXPECT_EQ(solution.selection[i], selection[i]);
}

TEST(Partition, IsingEnergyIsSquaredImbalance) {
  const std::vector<double> numbers{3, 1, 1, 2, 2, 1};
  const auto model = partition_to_ising(numbers);
  fecim::util::Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto spins = fecim::ising::random_spins(numbers.size(), rng);
    const double imbalance = partition_imbalance(numbers, spins);
    EXPECT_NEAR(model.energy(spins), imbalance * imbalance, 1e-9);
  }
}

TEST(Partition, PerfectPartitionReachesZero) {
  const std::vector<double> numbers{3, 1, 1, 2, 2, 1};  // total 10 -> 5|5
  const auto model = partition_to_ising(numbers);
  const auto [spins, energy] = model.brute_force_ground_state();
  EXPECT_NEAR(energy, 0.0, 1e-9);
  EXPECT_NEAR(partition_imbalance(numbers, spins), 0.0, 1e-9);
}

TEST(Partition, GreedyBoundsOptimal) {
  const std::vector<double> numbers{8, 7, 6, 5, 4};
  const auto model = partition_to_ising(numbers);
  const auto [spins, energy] = model.brute_force_ground_state();
  EXPECT_LE(std::sqrt(std::max(0.0, energy)),
            greedy_partition_imbalance(numbers) + 1e-9);
}

}  // namespace
