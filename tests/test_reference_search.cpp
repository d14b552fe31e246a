// The Max-Cut and QUBO reference searches against the code they replaced.
// Verbatim copies of the edge-scatter 1-opt descent, the branching
// cut_value, the per-draw bernoulli(0.5) start and the bitmap-delta QUBO
// descent serve as test-local oracles.  Cuts and objectives are compared
// bit for bit, with the final spins, over randomized graphs on both sides
// of the exact-integer bound (m * max|w| <= 2^51), with isolated vertices,
// zero and non-finite weights, weights whose summation order decides
// flips, and capped pass counts; reference_cut and
// qubo_reference_value are also pinned on fixed (instance, seed) pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <string>
#include <vector>

#include "ising/qubo.hpp"
#include "ising/spin.hpp"
#include "problems/generators.hpp"
#include "problems/graph.hpp"
#include "problems/maxcut.hpp"
#include "problems/qubo.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;
using problems::Graph;

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Bit-identical, except that any two NaNs match: which operand's NaN an
/// addition returns follows the operand order the compiler picks, which
/// neither version of the code controls (an optimized and a sanitizer build
/// of the same source differ there).
::testing::AssertionResult same_double(double got, double want) {
  if (bits_of(got) == bits_of(want) || (std::isnan(got) && std::isnan(want)))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " (bits " << bits_of(got) << ") vs "
         << want << " (bits " << bits_of(want) << ")";
}

// ---------------------------------------------------------------------------
// Oracles: the replaced code, verbatim apart from qualified calls (an
// unqualified one would find the library's overload by argument lookup).
// ---------------------------------------------------------------------------

namespace oracle {

double cut_value(const Graph& graph, std::span<const ising::Spin> spins) {
  double cut = 0.0;
  for (const auto& e : graph.edges())
    if (spins[e.u] != spins[e.v]) cut += e.weight;
  return cut;
}

double local_search_1opt(const Graph& graph, ising::SpinVector& spins,
                         std::size_t max_passes = 200) {
  const std::size_t n = graph.num_vertices();

  // gain[v] = cut increase from flipping v
  //         = sum_{u ~ v} w_uv * (same_side ? +1 : -1).
  std::vector<double> gain(n, 0.0);
  for (const auto& e : graph.edges()) {
    const double signed_w =
        spins[e.u] == spins[e.v] ? e.weight : -e.weight;
    gain[e.u] += signed_w;
    gain[e.v] += signed_w;
  }

  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (gain[v] <= 1e-12) continue;
      improved = true;
      spins[v] = static_cast<ising::Spin>(-spins[v]);
      gain[v] = -gain[v];
      const auto nbrs = graph.neighbors(v);
      const auto weights = graph.neighbor_weights(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto u = nbrs[k];
        // Edge u-v changed sides: the u gain shifts by +-2w.
        gain[u] += spins[u] == spins[v] ? 2.0 * weights[k] : -2.0 * weights[k];
      }
    }
    if (!improved) break;
  }
  return oracle::cut_value(graph, spins);
}

ising::SpinVector random_spins(std::size_t n, util::Rng& rng) {
  ising::SpinVector spins(n);
  for (auto& s : spins) s = static_cast<ising::Spin>(rng.bernoulli(0.5) ? 1 : -1);
  return spins;
}

double reference_cut(const Graph& graph, std::size_t restarts,
                     std::uint64_t seed) {
  bool all_positive = true;
  for (const auto& e : graph.edges())
    if (e.weight < 0.0) {
      all_positive = false;
      break;
    }
  if (all_positive && graph.is_bipartite()) return graph.total_weight();
  util::Rng rng(seed);
  double best = 0.0;
  for (std::size_t r = 0; r < restarts; ++r) {
    auto spins = random_spins(graph.num_vertices(), rng);
    best = std::max(best, oracle::local_search_1opt(graph, spins));
  }
  return best;
}

double qubo_reference_value(const ising::QuboModel& model, bool maximize,
                            std::size_t restarts, std::uint64_t seed) {
  const auto ising_model = model.to_ising();
  const std::size_t n = ising_model.num_spins();
  util::Rng rng(seed);
  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
  for (std::size_t restart = 0; restart < restarts; ++restart) {
    auto spins = random_spins(n, rng);
    double energy = ising_model.energy(spins);
    bool improved = true;
    for (std::size_t pass = 0; improved && pass < 200; ++pass) {
      improved = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t flip[1] = {i};
        const double delta = ising_model.delta_energy(spins, flip);
        if (maximize ? delta > 1e-12 : delta < -1e-12) {
          spins[i] = static_cast<ising::Spin>(-spins[i]);
          energy += delta;
          improved = true;
        }
      }
    }
    best = maximize ? std::max(best, energy) : std::min(best, energy);
  }
  return best;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Randomized graphs
// ---------------------------------------------------------------------------

enum class Weights {
  kUnit,         // all +1
  kPlusMinusOne, // +1 or -1
  kIntegers,     // integers in [-1000, 1000]
  kUniform,      // uniform(-1, 1): not integral
  kAtBound,      // +-2^51 / m: m * max|w| == 2^51 exactly, still exact
  kPowerOfTwo,   // +-k * 2^44, k <= 1000: over the bound, sums exact
  kOverBound,    // integers up to +-2^50: over the bound, sums round
  kZeros,        // 30 % signed zeros, the rest integers
  kAbsorbing,    // +-2^60 or +-1: 2^60 + 1 rounds to 2^60, so the order
                 // a gain is summed in decides flips
  kNonFinite,    // uniform(-1, 1) sprinkled with NaN and +-inf
};

const char* name_of(Weights scheme) {
  switch (scheme) {
    case Weights::kUnit: return "unit";
    case Weights::kPlusMinusOne: return "+-1";
    case Weights::kIntegers: return "integers";
    case Weights::kUniform: return "uniform";
    case Weights::kAtBound: return "at-bound";
    case Weights::kPowerOfTwo: return "k*2^44";
    case Weights::kOverBound: return "over-bound";
    case Weights::kZeros: return "zeros";
    case Weights::kAbsorbing: return "absorbing";
    case Weights::kNonFinite: return "non-finite";
  }
  return "?";
}

constexpr Weights kAllSchemes[] = {
    Weights::kUnit,       Weights::kPlusMinusOne, Weights::kIntegers,
    Weights::kUniform,    Weights::kAtBound,      Weights::kPowerOfTwo,
    Weights::kOverBound,  Weights::kZeros,        Weights::kAbsorbing,
    Weights::kNonFinite};

double draw_weight(Weights scheme, std::size_t edges, util::Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  switch (scheme) {
    case Weights::kUnit: return 1.0;
    case Weights::kPlusMinusOne: return sign;
    case Weights::kIntegers:
      return static_cast<double>(rng.uniform_int(-1000, 1000));
    case Weights::kUniform: return rng.uniform(-1.0, 1.0);
    case Weights::kAtBound: return sign * 0x1p51 / static_cast<double>(edges);
    case Weights::kPowerOfTwo:
      return sign * static_cast<double>(rng.uniform_int(1, 1000)) * 0x1p44;
    case Weights::kOverBound:
      return sign *
             static_cast<double>(rng.uniform_int(1, std::int64_t{1} << 50));
    case Weights::kZeros:
      if (rng.bernoulli(0.3)) return sign * 0.0;
      return static_cast<double>(rng.uniform_int(-20, 20));
    case Weights::kAbsorbing: return sign * (rng.bernoulli(0.5) ? 0x1p60 : 1.0);
    case Weights::kNonFinite: {
      const double roll = rng.uniform01();
      if (roll < 0.02) return std::numeric_limits<double>::quiet_NaN();
      if (roll < 0.04) return sign * std::numeric_limits<double>::infinity();
      return rng.uniform(-1.0, 1.0);
    }
  }
  return 0.0;
}

/// `edges` distinct edges over vertices [0, n - 2); the last two vertices
/// stay isolated.  kAtBound needs a power-of-two edge count.
Graph random_weighted_graph(std::size_t n, std::size_t edges, Weights scheme,
                            util::Rng& rng) {
  const std::size_t pairs = (n - 2) * (n - 3) / 2;
  Graph graph(n);
  while (graph.num_edges() < std::min(edges, pairs)) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(n - 2));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(n - 2));
    if (u == v || graph.has_edge(u, v)) continue;
    graph.add_edge(u, v, draw_weight(scheme, edges, rng));
  }
  return graph;
}

void expect_same_spins(const ising::SpinVector& got,
                       const ising::SpinVector& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << where << " spin " << i;
}

// ---------------------------------------------------------------------------
// Max-Cut: descent, cut and reference against the oracles
// ---------------------------------------------------------------------------

TEST(ReferenceSearch, DescentAndCutMatchTheScatterOracleBitForBit) {
  util::Rng rng(31);
  constexpr std::size_t kPasses[] = {200, 1, 2, 3};
  for (const Weights scheme : kAllSchemes) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t n = 6 + rng.uniform_index(60);
      const std::size_t edges = std::size_t{1} << (2 + rng.uniform_index(6));
      const Graph graph = random_weighted_graph(n, edges, scheme, rng);
      for (int start = 0; start < 4; ++start) {
        const auto spins = ising::random_spins(n, rng);
        const std::string where = std::string(name_of(scheme)) + " trial " +
                                  std::to_string(trial) + " start " +
                                  std::to_string(start);
        ASSERT_TRUE(same_double(problems::cut_value(graph, spins),
                                oracle::cut_value(graph, spins)))
            << where;
        const std::size_t passes = kPasses[start];
        auto got = spins;
        auto want = spins;
        const double got_cut = problems::local_search_1opt(graph, got, passes);
        const double want_cut = oracle::local_search_1opt(graph, want, passes);
        ASSERT_TRUE(same_double(got_cut, want_cut)) << where;
        expect_same_spins(got, want, where);
      }
    }
  }
}

TEST(ReferenceSearch, ReferenceCutMatchesTheSerialOracleBitForBit) {
  // Covers the O(n) final cut (integer schemes, including exactly at the
  // 2^51 bound) and the edge-order cut (uniform, over the bound,
  // non-finite).
  util::Rng rng(77);
  for (const Weights scheme : kAllSchemes) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::size_t n = 8 + rng.uniform_index(80);
      const std::size_t edges = std::size_t{1} << (3 + rng.uniform_index(6));
      const Graph graph = random_weighted_graph(n, edges, scheme, rng);
      const std::uint64_t seed = rng();
      const std::size_t restarts = 1 + rng.uniform_index(12);
      ASSERT_TRUE(same_double(problems::reference_cut(graph, restarts, seed),
                              oracle::reference_cut(graph, restarts, seed)))
          << name_of(scheme) << " trial " << trial;
    }
  }
}

TEST(ReferenceSearch, OverBoundSumsDoRound) {
  // The over-bound scheme is only a test of the exactness gate if its sums
  // actually round: on this graph the edge-order cut and the gains-derived
  // (W - E) / 2 disagree for some start.
  util::Rng rng(5);
  const Graph graph =
      random_weighted_graph(64, 512, Weights::kOverBound, rng);
  bool differs = false;
  for (int start = 0; start < 16 && !differs; ++start) {
    auto spins = ising::random_spins(graph.num_vertices(), rng);
    const double cut = oracle::local_search_1opt(graph, spins);
    double energy2 = 0.0;  // sum_v gain_v == 2 E, accumulated per vertex
    for (std::uint32_t v = 0; v < graph.num_vertices(); ++v) {
      const auto nbrs = graph.neighbors(v);
      const auto weights = graph.neighbor_weights(v);
      double gain = 0.0;
      for (std::size_t k = 0; k < nbrs.size(); ++k)
        gain += spins[v] == spins[nbrs[k]] ? weights[k] : -weights[k];
      energy2 += gain;
    }
    differs = (graph.total_weight() - 0.5 * energy2) / 2.0 != cut;
  }
  EXPECT_TRUE(differs);
}

TEST(ReferenceSearch, ReferenceCutMatchesOnTheParallelPath) {
  // num_edges * restarts above the gate: the descents run on the pool.
  const auto graph = problems::random_graph(
      600, 20.0, problems::WeightScheme::kPlusMinusOne, 9);
  ASSERT_GE(graph.num_edges() * 96, problems::kReferenceParallelEdgeRestarts);
  EXPECT_EQ(bits_of(problems::reference_cut(graph, 96, 41)),
            bits_of(oracle::reference_cut(graph, 96, 41)));
}

// ---------------------------------------------------------------------------
// One-bit random starts
// ---------------------------------------------------------------------------

TEST(ReferenceSearch, RandomSpinsMatchPerDrawBernoulli) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::size_t n = 1 + static_cast<std::size_t>(seed * 37 % 257);
    util::Rng got_rng(seed);
    util::Rng want_rng(seed);
    const auto got = ising::random_spins(n, got_rng);
    const auto want = oracle::random_spins(n, want_rng);
    expect_same_spins(got, want, "seed " + std::to_string(seed));
    // Both engines advanced by exactly n draws.
    ASSERT_EQ(got_rng(), want_rng()) << "seed " << seed;
  }
  util::Rng a(3);
  util::Rng b(3);
  for (int draw = 0; draw < 10000; ++draw)
    ASSERT_EQ(a.spin(), b.bernoulli(0.5) ? 1 : -1) << draw;
}

// ---------------------------------------------------------------------------
// QUBO reference
// ---------------------------------------------------------------------------

TEST(ReferenceSearch, QuboReferenceMatchesTheBitmapOracleBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t n = 2 + static_cast<std::size_t>(seed * 7 % 61);
    const double degree = static_cast<double>(seed % 9);
    const auto instance = problems::random_qubo(n, degree, seed);
    for (const bool maximize : {false, true}) {
      ASSERT_EQ(bits_of(problems::qubo_reference_value(instance.model,
                                                       maximize, 6, seed)),
                bits_of(oracle::qubo_reference_value(instance.model, maximize,
                                                     6, seed)))
          << "seed " << seed << (maximize ? " max" : " min");
    }
  }
}

// ---------------------------------------------------------------------------
// Pins: values the replaced code returned on fixed (instance, seed) pairs.
// ---------------------------------------------------------------------------

TEST(ReferenceSearch, PinnedReferenceValues) {
  const auto gset = problems::gset_like_instance(800, 3);
  EXPECT_EQ(problems::reference_cut(gset, 48, 7), 11450.0);
  const auto plus_minus = problems::random_graph(
      200, 6.0, problems::WeightScheme::kPlusMinusOne, 5);
  EXPECT_EQ(problems::reference_cut(plus_minus, 64, 11), 163.0);
  util::Rng rng(13);
  const Graph uniform = random_weighted_graph(120, 512, Weights::kUniform, rng);
  EXPECT_EQ(bits_of(problems::reference_cut(uniform, 16, 2)),
            bits_of(0x1.02f61c772493fp+6));
  const auto qubo = problems::random_qubo(64, 6.0, 11);
  EXPECT_EQ(bits_of(problems::qubo_reference_value(qubo.model, false, 24, 3)),
            bits_of(-0x1.e428e83d9cb71p+4));
  EXPECT_EQ(bits_of(problems::qubo_reference_value(qubo.model, true, 24, 3)),
            bits_of(0x1.a7d69be047ad6p+4));
}

}  // namespace
