#include "problems/maxcut.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace fecim::problems {

ising::IsingModel maxcut_to_ising(const Graph& graph) {
  // The graph holds each unordered pair once (parallel edges already
  // merged), so every coupling is the single term w/2 and needs no
  // duplicate merge: the CSR is built directly in O(n + m), bit-identical
  // to CsrMatrix::Builder's, which sums one term onto 0.0 and drops a
  // zero sum -- the same as keeping w/2 exactly when it is nonzero.
  const std::size_t n = graph.num_vertices();
  const auto edges = graph.edges();
  const auto kept = [](const Edge& e) { return e.weight / 2.0 != 0.0; };

  std::vector<std::size_t> row_ptr(n + 1, 0);
  for (const auto& e : edges)
    if (kept(e)) {
      ++row_ptr[e.u + 1];
      ++row_ptr[e.v + 1];
    }
  for (std::size_t r = 0; r < n; ++r) row_ptr[r + 1] += row_ptr[r];
  const std::size_t nnz = row_ptr[n];

  // Bucket each kept edge under both endpoints, in edge order; then walk
  // the buckets row by row and append r to row c for every edge {r, c}.
  // Each row comes out sorted by column (a counting sort), with no
  // comparison sort and no long-row worst case.
  std::vector<std::uint32_t> edge_of(nnz);
  std::vector<std::size_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t id = 0; id < edges.size(); ++id) {
    if (!kept(edges[id])) continue;
    edge_of[cursor[edges[id].u]++] = static_cast<std::uint32_t>(id);
    edge_of[cursor[edges[id].v]++] = static_cast<std::uint32_t>(id);
  }
  std::vector<std::uint32_t> col_idx(nnz);
  std::vector<double> values(nnz);
  std::copy(row_ptr.begin(), row_ptr.end() - 1, cursor.begin());
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const Edge& e = edges[edge_of[k]];
      const std::size_t c = e.u == r ? e.v : e.u;
      col_idx[cursor[c]] = static_cast<std::uint32_t>(r);
      values[cursor[c]++] = e.weight / 2.0;
    }
  return ising::IsingModel(linalg::CsrMatrix(
      n, std::move(row_ptr), std::move(col_idx), std::move(values)));
}

double cut_value(const Graph& graph, std::span<const ising::Spin> spins) {
  FECIM_EXPECTS(spins.size() == graph.num_vertices());
  // Adding +0 for an uncut edge is the same sum as skipping it: `cut`
  // starts at +0, so it is never -0, and x + (+0) is x itself for every x
  // but -0.
  double cut = 0.0;
  for (const auto& e : graph.edges())
    cut += spins[e.u] != spins[e.v] ? e.weight : 0.0;
  return cut;
}

double cut_from_energy(const Graph& graph, double energy) {
  return (graph.total_weight() - energy) / 2.0;
}

ExactCut brute_force_max_cut(const Graph& graph) {
  const std::size_t n = graph.num_vertices();
  FECIM_EXPECTS(n <= 24);
  // Spin 0 can be pinned: cut(sigma) == cut(-sigma).
  const std::uint64_t combos = std::uint64_t{1} << (n - 1);
  ExactCut best{ising::spins_from_bits(0, n), 0.0};
  best.cut = cut_value(graph, best.spins);
  for (std::uint64_t bits = 0; bits < combos; ++bits) {
    const auto spins = ising::spins_from_bits(bits << 1, n);
    const double cut = cut_value(graph, spins);
    if (cut > best.cut) {
      best.cut = cut;
      best.spins = spins;
    }
  }
  return best;
}

namespace {

/// The first-improvement descent behind local_search_1opt.  Leaves in
/// `gain[v]` the cut increase from flipping v at the final `spins`.
void descend_1opt(const Graph& graph, ising::SpinVector& spins,
                  std::size_t max_passes, std::vector<double>& gain) {
  const std::size_t n = graph.num_vertices();
  FECIM_EXPECTS(spins.size() == n);

  // gain[v] = sum_{u ~ v} w_uv * (same_side ? +1 : -1), summed along v's
  // adjacency row.  The row lists v's edges in edge-list order, so this
  // adds the same terms in the same order as a scatter over the edge list;
  // and w * (s_v * s_u) is exactly the select s_u == s_v ? w : -w.
  gain.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto nbrs = graph.neighbors(v);
    const auto weights = graph.neighbor_weights(v);
    const int s_v = spins[v];
    double sum = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k)
      sum += weights[k] * static_cast<double>(s_v * spins[nbrs[k]]);
    gain[v] = sum;
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
      const double two_s_v = 2.0 * static_cast<double>(spins[v]);
      // Edge u-v changed sides: the u gain shifts by +-2w, +2w when u is now
      // on v's side -- the product's sign, with no data-dependent branch.
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const auto u = nbrs[k];
        gain[u] += (two_s_v * weights[k]) * static_cast<double>(spins[u]);
      }
    }
    if (!improved) break;
  }
}

/// True when every weight is an integer and m * max|w| <= 2^51; NaN and
/// +-inf fail.  On such a graph every gain, every partial sum of gains and
/// of weights, and sum_v |gain_v| <= 2 sum_e |w_e| <= 2^52 is an integer
/// below 2^53, hence an exact double, and so is every cut: see
/// cut_from_gains.
bool has_exact_integer_weights(const Graph& graph) {
  double max_abs = 0.0;
  for (const auto& e : graph.edges()) {
    if (!(std::trunc(e.weight) == e.weight)) return false;
    max_abs = std::max(max_abs, std::fabs(e.weight));
  }
  return static_cast<double>(graph.num_edges()) * max_abs <= 0x1p51;
}

/// The cut of a descent's final spins from its final gains in O(n), for a
/// graph that has_exact_integer_weights.  sum_v gain_v counts every edge
/// from both ends, so it is 2 E with E = sum_e w_e s_u s_v, and
/// cut = (W - E) / 2.  Every operand and result is exact, so this is the
/// same double as cut_value's edge-order sum (an exact zero is +0 on both
/// sides), and the gains may be summed in any order.
double cut_from_gains(double total_weight, std::span<const double> gain) {
  double twice_energy = 0.0;
  for (const double g : gain) twice_energy += g;
  return (total_weight - 0.5 * twice_energy) / 2.0;
}

}  // namespace

double local_search_1opt(const Graph& graph, ising::SpinVector& spins,
                         std::size_t max_passes) {
  std::vector<double> gain;
  descend_1opt(graph, spins, max_passes, gain);
  return cut_value(graph, spins);
}

double reference_cut(const Graph& graph, std::size_t restarts,
                     std::uint64_t seed) {
  // Certified optimum for the toroidal family: bipartite graph with
  // non-negative weights cuts every edge.
  bool all_positive = true;
  for (const auto& e : graph.edges())
    if (e.weight < 0.0) {
      all_positive = false;
      break;
    }
  const double total_weight = graph.total_weight();
  if (all_positive && graph.is_bipartite()) return total_weight;

  FECIM_EXPECTS(restarts > 0);
  // Every start is drawn from the one sequential Rng up front, in restart
  // order, so each descent is a pure function of its index: the descents
  // may then run on the pool, each into its own slot, and the max over the
  // slots is exact -- bit-identical to the serial loop for every thread
  // count.
  util::Rng rng(seed);
  std::vector<ising::SpinVector> starts(restarts);
  for (auto& spins : starts)
    spins = ising::random_spins(graph.num_vertices(), rng);
  // Decided once per call: the O(n) final cut where it is exact, the
  // edge-order sum otherwise.
  const bool exact = has_exact_integer_weights(graph);
  std::vector<double> cuts(restarts);
  const auto descend = [&](std::size_t r) {
    std::vector<double> gain;
    descend_1opt(graph, starts[r], kLocalSearchMaxPasses, gain);
    cuts[r] = exact ? cut_from_gains(total_weight, gain)
                    : cut_value(graph, starts[r]);
  };
  if (graph.num_edges() * restarts < kReferenceParallelEdgeRestarts) {
    for (std::size_t r = 0; r < restarts; ++r) descend(r);
  } else {
    // The const accessors build the adjacency lazily; build it before the
    // descents share the graph across threads.
    graph.neighbors(0);
    util::parallel_for(restarts, descend);
  }
  double best = 0.0;
  for (const double cut : cuts) best = std::max(best, cut);
  return best;
}

}  // namespace fecim::problems
