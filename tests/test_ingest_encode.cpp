// Linear-time ingest and encode: the Graph's flat edge index, the direct
// Max-Cut CSR and the O(nnz) symmetry check, each compared on randomized
// inputs with the definition it replaced (kept here as a test-local
// oracle), plus allocation bounds on ingestion: reading an m-edge Gset list
// allocates O(log m) times, and a reader rejecting a short file whose
// header declares a huge count allocates in proportion to the file, not to
// the header.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "problems/graph.hpp"
#include "problems/gset_io.hpp"
#include "problems/instance_io.hpp"
#include "problems/maxcut.hpp"
#include "pipe_fixture.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: global operator new/delete replacements that count
// calls and requested bytes, so a test can bound what one call allocates.
// The measured calls run on the test's thread and start no pool work.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fecim;
using linalg::CsrMatrix;
using problems::Graph;

struct Allocations {
  std::uint64_t count;
  std::uint64_t bytes;
};

/// Heap allocations made by `fn` (calls and requested bytes).
template <typename Fn>
Allocations allocations_of(Fn&& fn) {
  const auto count = g_alloc_count.load();
  const auto bytes = g_alloc_bytes.load();
  fn();
  return {g_alloc_count.load() - count, g_alloc_bytes.load() - bytes};
}

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

// ---------------------------------------------------------------------------
// Graph edge index vs a std::map oracle
// ---------------------------------------------------------------------------

/// The merge semantics the index must keep: edges in first-occurrence
/// order, parallel edges summed in insertion order.
struct GraphOracle {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> slot;
  std::vector<problems::Edge> edges;

  void add(std::uint32_t u, std::uint32_t v, double w) {
    if (u > v) std::swap(u, v);
    const auto [it, inserted] = slot.try_emplace({u, v}, edges.size());
    if (inserted)
      edges.push_back({u, v, w});
    else
      edges[it->second].weight += w;
  }
};

void expect_graph_matches(const Graph& graph, const GraphOracle& oracle,
                          std::size_t n, util::Rng& probe) {
  ASSERT_EQ(graph.num_edges(), oracle.edges.size());
  const auto edges = graph.edges();
  for (std::size_t k = 0; k < edges.size(); ++k) {
    ASSERT_EQ(edges[k].u, oracle.edges[k].u) << k;
    ASSERT_EQ(edges[k].v, oracle.edges[k].v) << k;
    ASSERT_EQ(bits_of(edges[k].weight), bits_of(oracle.edges[k].weight)) << k;
    // Both orientations find the merged edge.
    ASSERT_TRUE(graph.has_edge(edges[k].v, edges[k].u));
    ASSERT_EQ(bits_of(graph.edge_weight(edges[k].v, edges[k].u)),
              bits_of(oracle.edges[k].weight));
  }
  // Random pairs, mostly absent on the sparse graphs below.
  for (int trial = 0; trial < 2000; ++trial) {
    const auto u = static_cast<std::uint32_t>(probe.uniform_index(n));
    const auto v = static_cast<std::uint32_t>(probe.uniform_index(n));
    if (u == v) continue;
    const auto it = oracle.slot.find({std::min(u, v), std::max(u, v)});
    const bool present = it != oracle.slot.end();
    ASSERT_EQ(graph.has_edge(u, v), present);
    ASSERT_EQ(bits_of(graph.edge_weight(u, v)),
              bits_of(present ? oracle.edges[it->second].weight : 0.0));
  }
}

TEST(GraphIndex, MatchesMapOracleThroughIndexGrowths) {
  for (const std::size_t n : {7u, 90u, 5000u}) {
    util::Rng rng(0x9e3779b9 + n);
    util::Rng probe(n);
    Graph graph(n);
    GraphOracle oracle;
    // 6000 inserts: at n = 7 nearly all merge into 21 pairs; at n = 5000
    // nearly all are new, so the index doubles from 16 to 16,384 buckets.
    std::size_t next_check = 1;
    for (std::size_t k = 1; k <= 6000; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
      auto v = static_cast<std::uint32_t>(rng.uniform_index(n - 1));
      if (v >= u) ++v;  // u != v
      // Mixed signs and magnitudes, so merged sums depend on their order.
      const double w = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-3.0, 3.0);
      graph.add_edge(u, v, w);
      oracle.add(u, v, w);
      if (k == next_check || k == 6000) {
        expect_graph_matches(graph, oracle, n, probe);
        next_check *= 2;  // around every index growth
      }
    }
  }
}

TEST(GraphIndex, EmptyGraphAnswersQueries) {
  const Graph graph(3);
  EXPECT_FALSE(graph.has_edge(0, 2));
  EXPECT_EQ(graph.edge_weight(2, 0), 0.0);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(GraphIndex, ReadGsetAllocatesLogarithmicallyInTheEdgeCount) {
  // 20,000 edge lines (every fifth a mirrored repeat of one edge): a
  // node-based map allocated once per distinct edge; the flat index and
  // the edge list each double O(log m) times, and integer tokens convert
  // without copies.
  constexpr std::size_t n = 4000;
  constexpr std::size_t m = 20000;
  std::ostringstream text;
  text << n << ' ' << m << '\n';
  util::Rng rng(11);
  for (std::size_t k = 0; k < m; ++k) {
    if (k % 5 == 4) {
      text << "2 1 1\n";
      continue;
    }
    const auto u = rng.uniform_index(n);
    const auto v = (u + 1 + rng.uniform_index(n - 1)) % n;  // v != u
    text << u + 1 << ' ' << v + 1 << ' ' << (k % 3 == 0 ? "-1" : "1")
         << '\n';
  }
  const std::string body = text.str();
  std::size_t edges = 0;
  const auto allocated = allocations_of([&] {
    edges = problems::read_gset(std::string_view(body), "g.txt").num_edges();
  });
  EXPECT_GT(edges, 15000u);
  const auto log2m = static_cast<std::uint64_t>(std::bit_width(m));
  EXPECT_LE(allocated.count, 4 * log2m + 16) << allocated.count;
}

// ---------------------------------------------------------------------------
// Max-Cut encode vs the CsrMatrix::Builder path
// ---------------------------------------------------------------------------

/// maxcut_to_ising's couplings as the Builder path produced them.
CsrMatrix builder_couplings(const Graph& graph) {
  const std::size_t n = graph.num_vertices();
  CsrMatrix::Builder builder(n, n);
  for (const auto& e : graph.edges())
    builder.add_symmetric(e.u, e.v, e.weight / 2.0);
  return builder.build();
}

void expect_identical_csr(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nonzeros(), b.nonzeros());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto a_cols = a.row_cols(r);
    const auto b_cols = b.row_cols(r);
    ASSERT_EQ(a_cols.size(), b_cols.size()) << "row " << r;  // row_ptr
    const auto a_vals = a.row_values(r);
    const auto b_vals = b.row_values(r);
    for (std::size_t k = 0; k < a_cols.size(); ++k) {
      ASSERT_EQ(a_cols[k], b_cols[k]) << "row " << r;
      ASSERT_EQ(bits_of(a_vals[k]), bits_of(b_vals[k])) << "row " << r;
    }
  }
}

TEST(MaxcutEncode, DirectCsrMatchesBuilderOracle) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    // Vertices past `touched` stay isolated (empty rows).
    const std::size_t n = 2 + rng.uniform_index(300);
    const std::size_t touched = 2 + rng.uniform_index(n - 1);
    Graph graph(n);
    const std::size_t inserts = rng.uniform_index(4 * touched + 1);
    for (std::size_t k = 0; k < inserts; ++k) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(touched));
      auto v = static_cast<std::uint32_t>(rng.uniform_index(touched - 1));
      if (v >= u) ++v;
      double w = 0.0;
      switch (rng.uniform_index(7)) {
        case 0: w = 1.0; break;
        case 1: w = -1.0; break;
        case 2: w = 0.0; break;       // zero weight: kept edge, no coupling
        case 3: w = -0.0; break;
        case 4: w = kTiny; break;     // w / 2 rounds to zero
        case 5: w = rng.uniform(-2.0, 2.0); break;
        default: w = 0.5; break;
      }
      graph.add_edge(u, v, w);
      // Cancelling parallel edge: the merged weight sums to exactly zero.
      if (rng.bernoulli(0.1)) graph.add_edge(v, u, -w);
    }
    const auto model = problems::maxcut_to_ising(graph);
    expect_identical_csr(model.couplings(), builder_couplings(graph));
    for (const double h : model.fields()) EXPECT_EQ(h, 0.0);
    EXPECT_EQ(model.constant(), 0.0);
  }
}

TEST(MaxcutEncode, EdgelessGraphHasNoCouplings) {
  Graph graph(5);
  graph.add_edge(1, 3, 0.0);
  const auto model = problems::maxcut_to_ising(graph);
  EXPECT_EQ(model.num_spins(), 5u);
  EXPECT_EQ(model.couplings().nonzeros(), 0u);
  expect_identical_csr(model.couplings(), builder_couplings(graph));
}

TEST(CsrAdoption, ChecksTheBuilderForm) {
  // A valid 2x3 matrix is adopted as given.
  const CsrMatrix m(3, {0, 2, 3}, {0, 2, 1}, {1.0, -2.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.at(0, 2), -2.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
  // Each violated rule is a contract error.
  EXPECT_THROW(CsrMatrix(3, {}, {}, {}), contract_error);
  EXPECT_THROW(CsrMatrix(3, {1, 1}, {0}, {1.0}), contract_error);  // ptr[0]
  EXPECT_THROW(CsrMatrix(3, {0, 2}, {0}, {1.0}), contract_error);  // nnz
  EXPECT_THROW(CsrMatrix(3, {0, 1}, {0}, {1.0, 2.0}), contract_error);
  EXPECT_THROW(CsrMatrix(3, {0, 2, 1, 2}, {0, 1}, {1.0, 1.0}),
               contract_error);  // decreasing offsets
  EXPECT_THROW(CsrMatrix(3, {0, 5, 2}, {0, 1}, {1.0, 1.0}),
               contract_error);  // an offset past nnz
  EXPECT_THROW(CsrMatrix(3, {0, 1}, {3}, {1.0}), contract_error);  // col
  EXPECT_THROW(CsrMatrix(3, {0, 2}, {1, 1}, {1.0, 1.0}), contract_error);
  EXPECT_THROW(CsrMatrix(3, {0, 2}, {2, 1}, {1.0, 1.0}), contract_error);
  EXPECT_THROW(CsrMatrix(3, {0, 1}, {1}, {0.0}), contract_error);  // zero
}

// ---------------------------------------------------------------------------
// is_symmetric vs the at()-based loop
// ---------------------------------------------------------------------------

/// is_symmetric as it was defined: one at() binary search per entry.
bool symmetric_oracle(const CsrMatrix& m, double tol) {
  if (m.rows() != m.cols()) return false;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto cols = m.row_cols(r);
    const auto vals = m.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (std::fabs(m.at(cols[k], r) - vals[k]) > tol) return false;
  }
  return true;
}

TEST(SymmetryCheck, MatchesAtOracleOnPerturbedMatrices) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t asymmetric = 0;
  std::size_t symmetric = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 1 + rng.uniform_index(12);
    // Dense coordinate map so duplicates and mirrors are easy to steer.
    std::map<std::pair<std::size_t, std::size_t>, double> entries;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        if (!rng.bernoulli(0.35)) continue;
        const double v = rng.uniform(-1.0, 1.0);
        entries[{i, j}] = v;
        entries[{j, i}] = v;  // a diagonal entry stays single
      }
    // Perturb a few entries: each kind of (a)symmetry the check must see.
    double diff = 0.0;  // one exact mirror difference to probe tol with
    const std::size_t edits = rng.uniform_index(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t i = rng.uniform_index(n);
      const std::size_t j = rng.uniform_index(n);
      switch (rng.uniform_index(6)) {
        case 0: entries.erase({i, j}); break;                // missing mirror
        case 1: entries[{i, j}] = rng.uniform(-1.0, 1.0); break;  // extra
        case 2: {                                            // near-mirror
          const double base = rng.uniform(-1.0, 1.0);
          entries[{i, j}] = base;
          entries[{j, i}] = base + rng.uniform(-1e-12, 1e-12);
          diff = std::fabs(entries[{j, i}] - base);
          break;
        }
        case 3: entries[{i, j}] = nan; break;
        case 4: entries[{i, j}] = rng.bernoulli(0.5) ? inf : -inf; break;
        default: entries[{i, i}] = rng.uniform(-1.0, 1.0); break;  // diagonal
      }
    }
    // Rectangular now and then: never symmetric.
    const std::size_t cols = rng.bernoulli(0.05) ? n + 1 : n;
    CsrMatrix::Builder builder(n, cols);
    for (const auto& [rc, v] : entries)
      if (v != 0.0) builder.add(rc.first, rc.second, v);
    const auto m = builder.build();
    for (const double tol :
         {0.0, 1e-12, diff, std::nextafter(diff, 0.0), nan, inf}) {
      const bool expected = symmetric_oracle(m, tol);
      ASSERT_EQ(m.is_symmetric(tol), expected)
          << "seed " << seed << " tol " << tol;
      (expected ? symmetric : asymmetric) += 1;
    }
  }
  // The corpus exercises both answers.
  EXPECT_GT(symmetric, 200u);
  EXPECT_GT(asymmetric, 200u);
}

TEST(SymmetryCheck, EmptyMatricesAreSymmetric) {
  EXPECT_TRUE(CsrMatrix().is_symmetric());
  EXPECT_TRUE(CsrMatrix::Builder(4, 4).build().is_symmetric());
  EXPECT_FALSE(CsrMatrix::Builder(4, 3).build().is_symmetric());
}

TEST(SymmetryCheck, ToleranceBoundaryIsInclusive) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.5);
  const auto m = builder.build();
  EXPECT_TRUE(m.is_symmetric(0.5));  // |1.5 - 1.0| == tol passes
  EXPECT_FALSE(m.is_symmetric(std::nextafter(0.5, 0.0)));
  // A missing mirror compares against zero.
  CsrMatrix::Builder lone(3, 3);
  lone.add(2, 0, 0.25);
  EXPECT_TRUE(lone.build().is_symmetric(0.25));
  CsrMatrix::Builder lone2(3, 3);
  lone2.add(2, 0, 0.25);
  EXPECT_FALSE(lone2.build().is_symmetric(0.125));
}

// ---------------------------------------------------------------------------
// Readers never size a buffer from an unverified header count
// ---------------------------------------------------------------------------

/// Read `text` through the string_view reader (context `context`) and,
/// from a pipe, through the *_file reader's buffered branch: each must
/// raise contract_error with its source's name followed by `expected`,
/// allocating at most 4 KiB plus a small multiple of the input (the old
/// readers reserved the declared count up front: 10^15 items, or 3.2 GB
/// for DIMENSION 2*10^8).  A rejection here allocates under 1 KiB.
template <typename ReadView, typename ReadFile>
void expect_bounded_rejection(const std::string& text,
                              const std::string& context,
                              const std::string& expected, ReadView&& view,
                              ReadFile&& file) {
  const std::uint64_t budget = (4u << 10) + 32 * text.size();
  for (const bool from_view : {true, false}) {
    const PipeFixture pipe(text);
    const std::string where = from_view ? context : pipe.path();
    std::string message;
    const auto allocated = allocations_of([&] {
      try {
        if (from_view)
          view(std::string_view(text), context);
        else
          file(pipe.path());
        ADD_FAILURE() << "accepted: " << text;
      } catch (const contract_error& error) {
        message = error.what();
      }
    });
    EXPECT_NE(message.find(where + expected), std::string::npos)
        << (from_view ? "view: " : "buffered: ") << message;
    EXPECT_LE(allocated.bytes, budget)
        << (from_view ? "view" : "buffered") << " allocated "
        << allocated.bytes << " bytes for " << text.size() << " input bytes";
  }
}

TEST(HeaderBounds, KnapsackItemCountIsNotReserved) {
  const auto view = [](std::string_view t, const std::string& c) {
    problems::read_knapsack(t, c);
  };
  const auto file = [](const std::string& p) {
    problems::read_knapsack_file(p);
  };
  expect_bounded_rejection(
      "1000000000000000 10\n", "big.kp",
      ": unexpected end of input (expected 1000000000000000 item lines, got "
      "0)",
      view, file);
  // The same with some items present: still bounded by the input.
  expect_bounded_rejection(
      "1000000000000000 10\n1 2\n3 4\n5 6\n", "big.kp",
      ": unexpected end of input (expected 1000000000000000 item lines, got "
      "3)",
      view, file);
}

TEST(HeaderBounds, TspCityCountIsNotReserved) {
  expect_bounded_rejection(
      "1000000000000000\n0 0\n3 0\n", "big.xy",
      ": unexpected end of input (expected 1000000000000000 coordinate "
      "lines, got 2)",
      [](std::string_view t, const std::string& c) {
        problems::read_tsp_coords(t, c);
      },
      [](const std::string& p) { problems::read_tsp_coords_file(p); });
}

TEST(HeaderBounds, TsplibDimensionIsNotAllocated) {
  const auto view = [](std::string_view t, const std::string& c) {
    problems::read_tsplib(t, c);
  };
  const auto file = [](const std::string& p) {
    problems::read_tsplib_file(p);
  };
  expect_bounded_rejection(
      "NAME: big\nTYPE: TSP\nDIMENSION: 200000000\n"
      "EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 3 0\n3 3 4\nEOF\n",
      "big.tsp", ":9: expected 3 fields, got 1", view, file);
  // Truncation and duplicate ids keep their diagnostics.
  expect_bounded_rejection(
      "DIMENSION: 200000000\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
      "2 0 0\n",
      "big.tsp",
      ": unexpected end of input (expected 200000000 node coordinate lines, "
      "got 1)",
      view, file);
  expect_bounded_rejection(
      "DIMENSION: 200000000\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
      "7 0 0\n9 1 1\n7 2 2\n",
      "big.tsp", ":6: duplicate node id 7", view, file);
}

TEST(HeaderBounds, GsetEdgeCountIsNotReserved) {
  expect_bounded_rejection(
      "3 1000000000000000\n1 2 1\n2 3 1\n", "big.gset",
      ": unexpected end of input (expected 1000000000000000 edges, got 2)",
      [](std::string_view t, const std::string& c) {
        problems::read_gset(t, c);
      },
      [](const std::string& p) { problems::read_gset_file(p); });
}

}  // namespace
