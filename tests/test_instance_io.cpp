// Instance-ingestion subsystem: the shared LineParser core, hardened Gset
// I/O (comments, line-numbered diagnostics, lossless round-trip), the
// DIMACS/knapsack/partition/TSP readers, and the QPLIB-subset QUBO format
// with its ProblemInstance factory.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ising/qubo.hpp"
#include "problems/gset_io.hpp"
#include "problems/instance_io.hpp"
#include "problems/instances.hpp"
#include "problems/qubo.hpp"
#include "pipe_fixture.hpp"
#include "util/assert.hpp"

namespace {

using namespace fecim::problems;

/// Run `fn`, require a contract_error, and return its message for
/// line-number / context assertions.
template <typename Fn>
std::string diagnostic_of(Fn&& fn) {
  try {
    fn();
  } catch (const fecim::contract_error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected fecim::contract_error";
  return {};
}

// ---------------------------------------------------------------------------
// Gset
// ---------------------------------------------------------------------------

TEST(GsetIoHardened, SkipsCommentAndBlankLines) {
  const std::string text(
      "% rudy-style comment\n"
      "# hash comment\n"
      "\n"
      "3 2\n"
      "  # indented comment between edges\n"
      "1 2 1.5\n"
      "\n"
      "2 3 -1\n");
  const auto g = read_gset(text);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 2), -1.0);
}

TEST(GsetIoHardened, WeightColumnOptionalDefaultsToUnit) {
  const std::string text("2 1\n1 2\n");
  const auto g = read_gset(text);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);
}

TEST(GsetIoHardened, SelfLoopNamesTheLine) {
  const std::string text("3 2\n1 2 1\n2 2 1\n");
  const auto message = diagnostic_of([&] { read_gset(text); });
  EXPECT_NE(message.find("gset:3"), std::string::npos) << message;
  EXPECT_NE(message.find("self-loop"), std::string::npos) << message;
}

TEST(GsetIoHardened, OutOfRangeIndexNamesTheLine) {
  const std::string text("# header next\n2 1\n1 5 1\n");
  const auto message = diagnostic_of([&] { read_gset(text); });
  EXPECT_NE(message.find("gset:3"), std::string::npos) << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
}

TEST(GsetIoHardened, GarbageFieldNamesTheLine) {
  const std::string text("3 1\n1 2 fast\n");
  const auto message = diagnostic_of([&] { read_gset(text); });
  EXPECT_NE(message.find("gset:2"), std::string::npos) << message;
  EXPECT_NE(message.find("'fast'"), std::string::npos) << message;
}

TEST(GsetIoHardened, TruncatedAndTrailingInputRejected) {
  const std::string truncated("3 2\n1 2 1\n");
  EXPECT_NE(diagnostic_of([&] { read_gset(truncated); })
                .find("end of input"),
            std::string::npos);
  const std::string trailing("2 1\n1 2 1\n2 1 3\n");
  EXPECT_NE(diagnostic_of([&] { read_gset(trailing); })
                .find("trailing content"),
            std::string::npos);
}

TEST(GsetIoHardened, DuplicateEdgesAccumulate) {
  const std::string text("2 2\n1 2 1.5\n2 1 2.5\n");
  const auto g = read_gset(text);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 4.0);
}

TEST(GsetIoHardened, WriteReadRoundTripIsLossless) {
  // Weights that the old default-precision writer (6 significant digits)
  // silently corrupted.
  Graph g(4);
  g.add_edge(0, 1, 1.0 / 3.0);
  g.add_edge(1, 2, 0.1);
  g.add_edge(2, 3, -1234567.890123);
  std::ostringstream buffer;
  write_gset(g, buffer);
  const auto parsed = read_gset(buffer.str());
  ASSERT_EQ(parsed.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(parsed.edge_weight(0, 1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(parsed.edge_weight(1, 2), 0.1);
  EXPECT_DOUBLE_EQ(parsed.edge_weight(2, 3), -1234567.890123);
}

TEST(GsetIoHardened, GsetScaleEdgeListLoadsLinearly) {
  // 20k edges with every edge listed twice: the seed's O(m) merge scan made
  // this O(m^2) (minutes); the hash-indexed merge loads it instantly.  The
  // assertion is correctness; the 60 s ctest timeout is the perf tripwire.
  constexpr std::uint32_t n = 2000;
  constexpr std::size_t m = 20000;
  std::ostringstream text;
  text << n << ' ' << 2 * m << '\n';
  for (std::size_t k = 0; k < m; ++k) {
    const auto u = static_cast<std::uint32_t>(k % n);
    const auto v = static_cast<std::uint32_t>((u + 1 + k % 7) % n);
    text << (u + 1) << ' ' << (v + 1) << " 0.5\n";
    text << (v + 1) << ' ' << (u + 1) << " 0.5\n";
  }
  const auto g = read_gset(text.str());
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_LE(g.num_edges(), m);  // every pair merged at least once
  double total = 0.0;
  for (const auto& e : g.edges()) total += e.weight;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(m));  // 2m half-weight lines
}

// ---------------------------------------------------------------------------
// DIMACS coloring
// ---------------------------------------------------------------------------

TEST(DimacsIo, ParsesAndDedupesMirroredEdges) {
  const std::string text(
      "c triangle plus a mirrored duplicate\n"
      "p edge 3 4\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 1 3\n"
      "e 2 1\n");
  const auto g = read_dimacs_coloring(text);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);  // mirrored duplicate deduped, unit weight
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1), 1.0);
}

TEST(DimacsIo, ErrorsNameTheLine) {
  const std::string no_problem_line("e 1 2\n");
  EXPECT_NE(diagnostic_of([&] { read_dimacs_coloring(no_problem_line); })
                .find("p edge"),
            std::string::npos);

  const std::string bad_index("p edge 3 1\ne 1 9\n");
  const auto message =
      diagnostic_of([&] { read_dimacs_coloring(bad_index); });
  EXPECT_NE(message.find("dimacs:2"), std::string::npos) << message;

  const std::string self_loop("p edge 3 1\ne 2 2\n");
  EXPECT_NE(diagnostic_of([&] { read_dimacs_coloring(self_loop); })
                .find("self-loop"),
            std::string::npos);

  const std::string truncated("p edge 3 2\ne 1 2\n");
  EXPECT_NE(diagnostic_of([&] { read_dimacs_coloring(truncated); })
                .find("end of input"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Knapsack files
// ---------------------------------------------------------------------------

TEST(KnapsackIo, ReadParsesHeaderAndItems) {
  const std::string text(
      "# value weight per line\n"
      "3 7.5\n"
      "10 5\n"
      "7 4\n"
      "4 3\n");
  const auto instance = read_knapsack(text);
  ASSERT_EQ(instance.items.size(), 3u);
  EXPECT_DOUBLE_EQ(instance.capacity, 7.5);
  EXPECT_DOUBLE_EQ(instance.items[1].value, 7.0);
  EXPECT_DOUBLE_EQ(instance.items[1].weight, 4.0);
}

TEST(KnapsackIo, WriteReadRoundTrip) {
  const KnapsackInstance instance{{{10.25, 5.5}, {1.0 / 3.0, 4}}, 7.125};
  std::ostringstream buffer;
  write_knapsack(instance, buffer);
  const auto parsed = read_knapsack(buffer.str());
  ASSERT_EQ(parsed.items.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.capacity, 7.125);
  EXPECT_DOUBLE_EQ(parsed.items[0].value, 10.25);
  EXPECT_DOUBLE_EQ(parsed.items[1].value, 1.0 / 3.0);
}

TEST(KnapsackIo, MalformedInputsNameTheLine) {
  const std::string negative_value("2 7\n-3 2\n1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_knapsack(negative_value); })
                .find("knapsack:2"),
            std::string::npos);
  const std::string truncated("3 7\n10 5\n");
  EXPECT_NE(diagnostic_of([&] { read_knapsack(truncated); })
                .find("end of input"),
            std::string::npos);
  const std::string zero_capacity("1 0\n1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_knapsack(zero_capacity); })
                .find("capacity"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Partition files
// ---------------------------------------------------------------------------

TEST(PartitionIo, LayoutInsensitiveParse) {
  const std::string text("# any layout\n4 5 6\n7\n8\n");
  const auto numbers = read_partition(text);
  ASSERT_EQ(numbers.size(), 5u);
  EXPECT_DOUBLE_EQ(numbers[0], 4.0);
  EXPECT_DOUBLE_EQ(numbers[4], 8.0);
}

TEST(PartitionIo, RejectsBadInputs) {
  const std::string garbage("3 x 5\n");
  EXPECT_NE(diagnostic_of([&] { read_partition(garbage); }).find("'x'"),
            std::string::npos);
  const std::string negative("3 -4\n");
  EXPECT_NE(diagnostic_of([&] { read_partition(negative); })
                .find("positive"),
            std::string::npos);
  const std::string too_few("42\n");
  EXPECT_NE(diagnostic_of([&] { read_partition(too_few); })
                .find("at least 2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TSP coordinate lists
// ---------------------------------------------------------------------------

TEST(TspIo, EuclideanDistancesFromCoordinates) {
  const std::string text("4\n0 0\n1 0\n1 1\n0 1\n");
  const auto instance = read_tsp_coords(text);
  ASSERT_EQ(instance.num_cities(), 4u);
  EXPECT_DOUBLE_EQ(instance.distances[0][1], 1.0);
  EXPECT_DOUBLE_EQ(instance.distances[0][2], std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(instance.distances[2][0], std::sqrt(2.0));  // symmetric
  EXPECT_DOUBLE_EQ(instance.distances[3][3], 0.0);
  // Unit square: the optimal (perimeter) tour has length 4.
  EXPECT_NEAR(tsp_heuristic(instance).length, 4.0, 1e-9);
}

TEST(TspIo, RejectsBadInputs) {
  const std::string too_few("2\n0 0\n1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_tsp_coords(too_few); })
                .find("at least 3"),
            std::string::npos);
  const std::string truncated("3\n0 0\n1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_tsp_coords(truncated); })
                .find("end of input"),
            std::string::npos);
  const std::string trailing("3\n0 0\n1 0\n0 1\n5 5\n");
  EXPECT_NE(diagnostic_of([&] { read_tsp_coords(trailing); })
                .find("trailing"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// TSPLIB (EUC_2D subset)
// ---------------------------------------------------------------------------

const char* const kTsplibSquare =
    "NAME : square4\n"
    "COMMENT : unit-ish square, with a colon: in the comment\n"
    "TYPE : TSP\n"
    "DIMENSION : 4\n"
    "EDGE_WEIGHT_TYPE : EUC_2D\n"
    "NODE_COORD_SECTION\n"
    "1 0 0\n"
    "2 3 0\n"
    "3 3 4\n"
    "4 0 4\n"
    "EOF\n";

TEST(TsplibIo, ParsesHeadersAndRoundsEuc2dDistances) {
  const std::string text(kTsplibSquare);
  const auto instance = read_tsplib(text);
  ASSERT_EQ(instance.num_cities(), 4u);
  EXPECT_DOUBLE_EQ(instance.distances[0][1], 3.0);
  EXPECT_DOUBLE_EQ(instance.distances[1][2], 4.0);
  // TSPLIB EUC_2D rounds to the nearest integer: sqrt(3^2 + 4^2) = 5.
  EXPECT_DOUBLE_EQ(instance.distances[0][2], 5.0);
  EXPECT_DOUBLE_EQ(instance.distances[2][0], 5.0);  // symmetric
  // 3-4-5 rectangle perimeter tour.
  EXPECT_NEAR(tsp_heuristic(instance).length, 14.0, 1e-9);
}

TEST(TsplibIo, NintRoundingIsPartOfTheFormat) {
  // d(1,2) = sqrt(2) ~ 1.414 -> 1; d(1,3) = sqrt(8) ~ 2.83 -> 3.
  const std::string text(
      "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n3 2 2\nEOF\n");
  const auto instance = read_tsplib(text);
  EXPECT_DOUBLE_EQ(instance.distances[0][1], 1.0);
  EXPECT_DOUBLE_EQ(instance.distances[0][2], 3.0);
}

TEST(TsplibIo, AcceptsOutOfOrderIdsAndNoEofTerminator) {
  const std::string text(
      "DIMENSION : 3\n"
      "EDGE_WEIGHT_TYPE : EUC_2D\n"
      "NODE_COORD_SECTION\n"
      "3 0 4\n"
      "1 0 0\n"
      "2 3 0\n");
  const auto instance = read_tsplib(text);
  ASSERT_EQ(instance.num_cities(), 3u);
  EXPECT_DOUBLE_EQ(instance.distances[0][1], 3.0);  // ids landed in place
  EXPECT_DOUBLE_EQ(instance.distances[0][2], 4.0);
  EXPECT_DOUBLE_EQ(instance.distances[1][2], 5.0);
}

TEST(TsplibIo, MalformedInputsNameTheLine) {
  const std::string geo(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : GEO\nNODE_COORD_SECTION\n");
  const auto geo_diag = diagnostic_of([&] { read_tsplib(geo, "t.tsp"); });
  EXPECT_NE(geo_diag.find("t.tsp:2"), std::string::npos);
  EXPECT_NE(geo_diag.find("GEO"), std::string::npos);

  // strtoull would wrap "-4" to a huge value; the reader must reject the
  // sign with a line-numbered diagnostic, not die allocating 2^64 points.
  const std::string negative(
      "DIMENSION : -4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n");
  const auto neg_diag =
      diagnostic_of([&] { read_tsplib(negative, "n.tsp"); });
  EXPECT_NE(neg_diag.find("n.tsp:1"), std::string::npos);
  EXPECT_NE(neg_diag.find("not a non-negative integer"), std::string::npos);

  const std::string no_dim(
      "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(no_dim); })
                .find("before DIMENSION"),
            std::string::npos);

  const std::string no_type("DIMENSION : 3\nNODE_COORD_SECTION\n1 0 0\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(no_type); })
                .find("EDGE_WEIGHT_TYPE"),
            std::string::npos);

  const std::string atsp(
      "TYPE : ATSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(atsp); })
                .find("unsupported TYPE"),
            std::string::npos);

  const std::string truncated(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(truncated); })
                .find("end of input"),
            std::string::npos);

  const std::string duplicate(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n1 1 1\n3 2 2\n");
  const auto dup_diag =
      diagnostic_of([&] { read_tsplib(duplicate, "d.tsp"); });
  EXPECT_NE(dup_diag.find("d.tsp:5"), std::string::npos);
  EXPECT_NE(dup_diag.find("duplicate node id 1"), std::string::npos);

  const std::string out_of_range(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n7 2 2\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(out_of_range); })
                .find("outside 1..3"),
            std::string::npos);

  const std::string trailing(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n3 2 2\nEOF\n5 5 5\n");
  EXPECT_NE(diagnostic_of([&] { read_tsplib(trailing); })
                .find("trailing"),
            std::string::npos);
}

TEST(TsplibIo, SniffingLoaderHandlesBothFormats) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();
  const auto tsplib_path = (dir / "fecim_sniff_test.tsp").string();
  const auto coords_path = (dir / "fecim_sniff_test.xy").string();
  {
    std::ofstream out(tsplib_path);
    out << kTsplibSquare;
  }
  {
    std::ofstream out(coords_path);
    out << "4\n0 0\n3 0\n3 4\n0 4\n";
  }
  const auto from_tsplib = read_tsp_file(tsplib_path);
  const auto from_coords = read_tsp_file(coords_path);
  ASSERT_EQ(from_tsplib.num_cities(), 4u);
  ASSERT_EQ(from_coords.num_cities(), 4u);
  // Same geometry; TSPLIB rounds, the plain list keeps exact distances --
  // both integral on a 3-4-5 rectangle.
  for (std::size_t u = 0; u < 4; ++u)
    for (std::size_t v = 0; v < 4; ++v)
      EXPECT_DOUBLE_EQ(from_tsplib.distances[u][v],
                       from_coords.distances[u][v]);
  fs::remove(tsplib_path);
  fs::remove(coords_path);
}

// ---------------------------------------------------------------------------
// QUBO (QPLIB subset / COO triplets)
// ---------------------------------------------------------------------------

TEST(QuboIo, ParsesDirectivesHeaderAndTriplets) {
  const std::string text(
      "# 2-variable toy\n"
      "maximize\n"
      "constant 1.5\n"
      "2 3\n"
      "1 1 2\n"
      "2 2 -1\n"
      "1 2 3\n");
  const auto instance = read_qubo(text);
  EXPECT_TRUE(instance.maximize);
  EXPECT_EQ(instance.model.num_variables(), 2u);
  EXPECT_DOUBLE_EQ(instance.model.constant(), 1.5);
  // H(x) = 2 x1 - x2 + 3 x1 x2 + 1.5
  EXPECT_DOUBLE_EQ(instance.model.value(std::vector<std::uint8_t>{1, 0}),
                   3.5);
  EXPECT_DOUBLE_EQ(instance.model.value(std::vector<std::uint8_t>{1, 1}),
                   5.5);
}

TEST(QuboIo, MirroredAndDuplicateTripletsAccumulate) {
  const std::string text("2 3\n1 2 1\n2 1 2\n1 2 0.5\n");
  const auto instance = read_qubo(text);
  EXPECT_DOUBLE_EQ(instance.model.value(std::vector<std::uint8_t>{1, 1}),
                   3.5);
}

TEST(QuboIo, WriteReadRoundTripIsLossless) {
  const auto original = random_qubo(12, 4.0, 99);
  std::ostringstream buffer;
  write_qubo(original, buffer);
  const auto parsed = read_qubo(buffer.str());
  EXPECT_EQ(parsed.maximize, original.maximize);
  EXPECT_EQ(parsed.model.num_variables(), original.model.num_variables());
  EXPECT_EQ(parsed.model.q().nonzeros(), original.model.q().nonzeros());
  // Exact value agreement on a deterministic set of assignments.
  std::vector<std::uint8_t> x(12, 0);
  for (std::size_t trial = 0; trial < 32; ++trial) {
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = static_cast<std::uint8_t>((trial * 7 + i * 3) % 2);
    EXPECT_DOUBLE_EQ(parsed.model.value(x), original.model.value(x));
  }
}

TEST(QuboIo, MalformedInputsNameTheLine) {
  const std::string empty("# only comments\n");
  EXPECT_NE(diagnostic_of([&] { read_qubo(empty); }).find("empty input"),
            std::string::npos);
  const std::string bad_header("minimize\nfoo bar\n");
  EXPECT_NE(diagnostic_of([&] { read_qubo(bad_header); }).find("qubo:2"),
            std::string::npos);
  const std::string out_of_range("2 1\n1 3 1\n");
  EXPECT_NE(diagnostic_of([&] { read_qubo(out_of_range); })
                .find("out of range"),
            std::string::npos);
  const std::string truncated("2 2\n1 2 1\n");
  EXPECT_NE(diagnostic_of([&] { read_qubo(truncated); })
                .find("end of input"),
            std::string::npos);
  const std::string trailing("2 1\n1 2 1\n1 1 1\n");
  EXPECT_NE(diagnostic_of([&] { read_qubo(trailing); }).find("trailing"),
            std::string::npos);
}

TEST(QuboIo, ReferenceValueBracketsTheOptimum) {
  // Max independent set on C8: optimum H* = -4; every 1-opt local minimum
  // is a maximal independent set, so the multi-restart reference lies in
  // [H*, -3].
  fecim::linalg::CsrMatrix::Builder builder(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    builder.add(i, i, -1.0);
    builder.add(std::min(i, (i + 1) % 8), std::max(i, (i + 1) % 8), 2.0);
  }
  const fecim::ising::QuboModel model(builder.build());
  const auto [spins, ground] =
      model.to_ising().brute_force_ground_state();
  EXPECT_NEAR(ground, -4.0, 1e-9);
  const double reference = qubo_reference_value(model, false, 32, 7);
  EXPECT_GE(reference, ground - 1e-9);
  EXPECT_LE(reference, -3.0 + 1e-9);
}

TEST(QuboIo, RandomQuboIsSeedDeterministic) {
  const auto a = random_qubo(32, 6.0, 11);
  const auto b = random_qubo(32, 6.0, 11);
  EXPECT_EQ(a.model.q().nonzeros(), b.model.q().nonzeros());
  std::vector<std::uint8_t> x(32, 1);
  EXPECT_DOUBLE_EQ(a.model.value(x), b.model.value(x));
  EXPECT_EQ(a.model.q().nonzeros(), 32u + 96u);  // diagonal + 32*6/2 pairs
}

TEST(QuboProblem, MaximizeInstancesAnnealTheNegatedModel) {
  // Annealers minimize Ising energy, so a maximize QUBO must be encoded as
  // -H: the model's ground state has to decode to the H-MAXIMUM, not the
  // minimum.  H = x1 + x2 - 3 x1 x2 has max 1 (either single bit) and min
  // -1 (both bits) -- a sign-naive encoding would anneal to -1.
  const std::string text("maximize\n2 3\n1 1 1\n2 2 1\n1 2 -3\n");
  const auto problem = fecim::problems::make_qubo_problem(
      "maximize-toy", read_qubo(text), 8, 1);
  EXPECT_EQ(problem.sense, fecim::core::ObjectiveSense::kMaximize);
  EXPECT_DOUBLE_EQ(problem.reference_objective, 1.0);
  const auto [spins, energy] = problem.model->brute_force_ground_state();
  EXPECT_DOUBLE_EQ(problem.decode(spins).objective, 1.0);
  EXPECT_DOUBLE_EQ(energy, -1.0);  // annealed energy is -H at the optimum
}

// ---------------------------------------------------------------------------
// mmap differential: the *_file readers map regular files and read anything
// else (pipes, /dev/stdin) into a buffer; both branches must parse the
// same instances and raise the same <file>:<line> diagnostics for every
// fixture in this suite, including files without a trailing newline and
// empty files.
// ---------------------------------------------------------------------------

class TempFixture {
 public:
  TempFixture(const std::string& name, const std::string& text)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::ofstream out(path_, std::ios::binary);
    out << text;  // binary: bytes land exactly as written, no newline edits
  }
  ~TempFixture() { std::filesystem::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Read `text` through `read` (a *_file reader) from a mapped file and
/// from a pipe: both must throw contract_error naming their path, with
/// messages identical once the path is replaced.
template <typename Read>
void expect_same_diagnostic(const std::string& text, Read&& read) {
  TempFixture file("fecim_mmap_diag.txt", text);
  PipeFixture pipe(text);
  const auto neutral = [](std::string message, const std::string& path) {
    EXPECT_NE(message.find(path), std::string::npos) << message;
    for (auto at = message.find(path); at != std::string::npos;
         at = message.find(path, at))
      message.replace(at, path.size(), "<file>");
    return message;
  };
  EXPECT_EQ(neutral(diagnostic_of([&] { read(file.path()); }), file.path()),
            neutral(diagnostic_of([&] { read(pipe.path()); }), pipe.path()));
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (const auto& e : a.edges())
    EXPECT_DOUBLE_EQ(b.edge_weight(e.u, e.v), e.weight);
}

TEST(MmapDifferential, GsetFixturesParseIdentically) {
  const std::string fixtures[] = {
      "% rudy-style comment\n# hash comment\n\n3 2\n"
      "  # indented comment between edges\n1 2 1.5\n\n2 3 -1\n",
      "2 1\n1 2\n",
      "2 2\n1 2 1.5\n2 1 2.5\n",
      "2 1\n1 2 0.25",  // no trailing newline: final line still counts
  };
  std::size_t k = 0;
  for (const auto& text : fixtures) {
    TempFixture file("fecim_mmap_gset_" + std::to_string(k++) + ".txt",
                     text);
    PipeFixture pipe(text);
    expect_same_graph(read_gset_file(file.path()),
                      read_gset_file(pipe.path()));
  }
}

TEST(MmapDifferential, GsetDiagnosticsMatchLineForLine) {
  const std::string malformed[] = {
      "3 2\n1 2 1\n2 2 1\n",              // self-loop at line 3
      "# header next\n2 1\n1 5 1\n",      // out of range at line 3
      "3 1\n1 2 fast\n",                  // garbage field at line 2
      "3 2\n1 2 1\n",                     // truncated edge list
      "2 1\n1 2 1\n2 1 3\n",              // trailing content
      "",                                 // empty input
      "# only comments\n",                // comments-only input
  };
  for (const auto& text : malformed)
    expect_same_diagnostic(text,
                           [](const std::string& p) { read_gset_file(p); });
  // The file reader names the path and the line.
  TempFixture file("fecim_mmap_gset_diag.txt", "3 2\n1 2 1\n2 2 1\n");
  const auto message =
      diagnostic_of([&] { read_gset_file(file.path()); });
  EXPECT_NE(message.find(file.path() + ":3"), std::string::npos) << message;
  EXPECT_NE(message.find("self-loop"), std::string::npos) << message;
}

TEST(MmapDifferential, DimacsKnapsackPartitionParseIdentically) {
  {
    const std::string text =
        "c comment\np edge 3 4\ne 1 2\ne 2 3\ne 1 3\ne 2 1";  // no final \n
    TempFixture file("fecim_mmap_dimacs.col", text);
    PipeFixture pipe(text);
    expect_same_graph(read_dimacs_coloring_file(file.path()),
                      read_dimacs_coloring_file(pipe.path()));
  }
  {
    const std::string text = "# value weight\n3 7.5\n10 5\n7 4\n4 3\n";
    TempFixture file("fecim_mmap_knap.txt", text);
    PipeFixture pipe(text);
    const auto mapped = read_knapsack_file(file.path());
    const auto buffered = read_knapsack_file(pipe.path());
    ASSERT_EQ(mapped.items.size(), buffered.items.size());
    EXPECT_DOUBLE_EQ(mapped.capacity, buffered.capacity);
    for (std::size_t i = 0; i < mapped.items.size(); ++i) {
      EXPECT_DOUBLE_EQ(mapped.items[i].value, buffered.items[i].value);
      EXPECT_DOUBLE_EQ(mapped.items[i].weight, buffered.items[i].weight);
    }
  }
  {
    const std::string text = "# any layout\n4 5 6\n7\n8";  // no final \n
    TempFixture file("fecim_mmap_part.txt", text);
    PipeFixture pipe(text);
    const auto mapped = read_partition_file(file.path());
    const auto buffered = read_partition_file(pipe.path());
    ASSERT_EQ(mapped.size(), buffered.size());
    for (std::size_t i = 0; i < mapped.size(); ++i)
      EXPECT_DOUBLE_EQ(mapped[i], buffered[i]);
  }
}

TEST(MmapDifferential, TspSniffingLoaderParsesBothFormatsFromMmap) {
  // The sniffing loader re-reads its text, so both formats must also sniff
  // right from a pipe, which read_file holds in its buffer.
  const std::string coords = "4\n0 0\n3 0\n3 4\n0 4\n";
  for (const std::string& text : {std::string(kTsplibSquare), coords}) {
    TempFixture file("fecim_mmap_sniff.txt", text);
    PipeFixture pipe(text);
    const auto mapped = read_tsp_file(file.path());
    const auto buffered = read_tsp_file(pipe.path());
    const auto direct = text == coords ? read_tsp_coords(text)
                                       : read_tsplib(text);
    ASSERT_EQ(mapped.num_cities(), 4u);
    ASSERT_EQ(buffered.num_cities(), 4u);
    ASSERT_EQ(direct.num_cities(), 4u);
    for (std::size_t u = 0; u < 4; ++u)
      for (std::size_t v = 0; v < 4; ++v) {
        EXPECT_DOUBLE_EQ(mapped.distances[u][v], direct.distances[u][v]);
        EXPECT_DOUBLE_EQ(buffered.distances[u][v], direct.distances[u][v]);
      }
  }
}

TEST(MmapDifferential, QuboParsesAndDiagnosesIdentically) {
  const std::string text =
      "maximize\nconstant 1.5\n2 3\n1 1 2\n2 2 -1\n1 2 3";  // no final \n
  TempFixture file("fecim_mmap_qubo.txt", text);
  PipeFixture pipe(text);
  const auto mapped = read_qubo_file(file.path());
  const auto buffered = read_qubo_file(pipe.path());
  EXPECT_EQ(mapped.maximize, buffered.maximize);
  EXPECT_DOUBLE_EQ(mapped.model.constant(), buffered.model.constant());
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const std::vector<std::uint8_t> x{
        static_cast<std::uint8_t>(trial & 1),
        static_cast<std::uint8_t>((trial >> 1) & 1)};
    EXPECT_DOUBLE_EQ(mapped.model.value(x), buffered.model.value(x));
  }
  expect_same_diagnostic("2 1\n1 3 1\n",
                         [](const std::string& p) { read_qubo_file(p); });
}

TEST(MmapDifferential, EmptyFileBehavesLikeEmptyStream) {
  TempFixture file("fecim_mmap_empty.txt", "");
  const auto from_file = diagnostic_of([&] { read_gset_file(file.path()); });
  EXPECT_NE(from_file.find("empty input"), std::string::npos) << from_file;
  EXPECT_NE(from_file.find(file.path()), std::string::npos) << from_file;
  expect_same_diagnostic("", [](const std::string& p) { read_gset_file(p); });
}

TEST(MmapDifferential, MappedFileContract) {
  fecim::problems::io::MappedFile missing;
  EXPECT_FALSE(missing.open("/nonexistent/fecim-no-such-file"));

  TempFixture file("fecim_mmap_view.txt", "alpha\nbeta");
  fecim::problems::io::MappedFile mapped;
  ASSERT_TRUE(mapped.open(file.path()));
  EXPECT_EQ(mapped.view(), "alpha\nbeta");

  TempFixture empty("fecim_mmap_view_empty.txt", "");
  fecim::problems::io::MappedFile mapped_empty;
  ASSERT_TRUE(mapped_empty.open(empty.path()));
  EXPECT_TRUE(mapped_empty.view().empty());
}

// ---------------------------------------------------------------------------
// Token grammar: LineParser converts plain decimal integers directly and
// every other token through strtod / strtoull.  The corpus pins that both
// sources and both typed readers keep the strtod / strtoull grammar,
// values and messages token for token.
// ---------------------------------------------------------------------------

/// A typed field read: the value's bits when accepted, else the message.
struct TokenOutcome {
  bool accepted = false;
  std::uint64_t bits = 0;
  std::string message;
  bool operator==(const TokenOutcome&) const = default;
};

void PrintTo(const TokenOutcome& outcome, std::ostream* out) {
  *out << (outcome.accepted ? "accepted " : "rejected ") << outcome.bits
       << " '" << outcome.message << "'";
}

/// LineParser::number() as it was defined before the integer fast path.
TokenOutcome strtod_number(const std::string& token, const std::string& where) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || end == token.c_str() ||
      errno == ERANGE || !std::isfinite(value))
    return {false, 0, where + ": '" + token + "' is not a finite number"};
  return {true, std::bit_cast<std::uint64_t>(value), {}};
}

/// LineParser::index() as it was defined before the integer fast path.
TokenOutcome strtoull_index(const std::string& token,
                            const std::string& where) {
  const TokenOutcome rejected{
      false, 0, where + ": '" + token + "' is not a non-negative integer"};
  if (token.empty() || token[0] == '-' || token[0] == '+') return rejected;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || end == token.c_str() ||
      errno == ERANGE)
    return rejected;
  return {true, value, {}};
}

template <typename Read>
TokenOutcome outcome_of(Read&& read) {
  try {
    return {true, read(), {}};
  } catch (const fecim::contract_error& error) {
    return {false, 0, error.what()};
  }
}

TEST(MmapDifferential, TokenGrammarMatchesStrtodAndStrtoull) {
  const std::vector<std::string> tokens = {
      "1", "-0", "007",
      "999999999999999",       // 15 digits: number()'s longest direct token
      "-123456789012345",      // 15 digits, negative
      "9007199254740993",      // 16 digits (2^53 + 1: strtod rounds it)
      "999999999999999999",    // 18 digits: index()'s longest direct token
      "1234567890123456789",   // 19 digits
      "12345678901234567890",  // 20 digits
      "18446744073709551615",  // 2^64 - 1
      "18446744073709551616",  // 2^64: out of range for index()
      "+1", "-1", "0x10", "1e3", "1.5", "1e309", "1e-400", "inf", "nan",
      "1,5",
  };
  std::string text;
  for (const auto& token : tokens) text += token + "\n";
  TempFixture file("fecim_mmap_tokens.txt", text);
  io::MappedFile mapped;
  ASSERT_TRUE(mapped.open(file.path()));
  std::stringstream stream(text);
  io::LineParser from_map(mapped.view(), "tokens.txt");
  io::LineParser from_stream(stream, "tokens.txt");
  std::size_t accepted = 0;
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const std::string where = "tokens.txt:" + std::to_string(k + 1);
    const auto want_number = strtod_number(tokens[k], where);
    const auto want_index = strtoull_index(tokens[k], where);
    accepted += want_number.accepted + want_index.accepted;
    for (io::LineParser* parser : {&from_map, &from_stream}) {
      ASSERT_TRUE(parser->next());
      EXPECT_EQ(outcome_of([&] {
                  return std::bit_cast<std::uint64_t>(parser->number(0));
                }),
                want_number)
          << tokens[k];
      EXPECT_EQ(outcome_of([&] {
                  return static_cast<std::uint64_t>(parser->index(0));
                }),
                want_index)
          << tokens[k];
    }
  }
  // The oracle itself: both verdicts occur, and the edge tokens land where
  // the C library puts them.
  EXPECT_EQ(accepted, 24u);  // 16 numbers and 8 indices
  EXPECT_EQ(strtod_number("-0", "w").bits, std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(strtoull_index("18446744073709551615", "w").accepted);
  EXPECT_FALSE(strtoull_index("18446744073709551616", "w").accepted);
  EXPECT_FALSE(strtod_number("1e-400", "w").accepted);
}

TEST(MmapDifferential, FieldsSplitOnCLocaleWhitespaceOnly) {
  for (int c = 0; c < 256; ++c) {
    if (c == '\n') continue;  // the line separator
    const std::string text = std::string("a") + static_cast<char>(c) + "b";
    std::stringstream in(text);
    io::LineParser from_view(std::string_view(text), "ws");
    io::LineParser from_stream(in, "ws");
    for (io::LineParser* parser : {&from_view, &from_stream}) {
      ASSERT_TRUE(parser->next());
      EXPECT_EQ(parser->fields(), std::isspace(c) ? 2u : 1u) << c;
    }
  }
}

TEST(QuboProblem, FactoryDecodesAndKeepsSense) {
  auto instance = random_qubo(16, 4.0, 3);
  instance.maximize = true;
  const auto problem =
      fecim::problems::make_qubo_problem("qubo-16", instance, 8, 3);
  EXPECT_EQ(problem.family, "qubo");
  EXPECT_EQ(problem.sense, fecim::core::ObjectiveSense::kMaximize);
  fecim::core::validate_problem(problem);

  // Decode evaluates H on the first n spins (ancilla stripped) and every
  // assignment is feasible.
  fecim::ising::SpinVector spins(problem.model->num_spins(),
                                 fecim::ising::Spin{1});
  const auto solution = problem.decode(spins);
  EXPECT_TRUE(solution.feasible);
  const std::vector<std::uint8_t> zeros(16, 0);  // sigma=+1 -> x=0
  EXPECT_DOUBLE_EQ(solution.objective, instance.model.value(zeros));
}

}  // namespace
