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
  double cut = 0.0;
  for (const auto& e : graph.edges())
    if (spins[e.u] != spins[e.v]) cut += e.weight;
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

double local_search_1opt(const Graph& graph, ising::SpinVector& spins,
                         std::size_t max_passes) {
  const std::size_t n = graph.num_vertices();
  FECIM_EXPECTS(spins.size() == n);

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
  if (all_positive && graph.is_bipartite()) return graph.total_weight();

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
  std::vector<double> cuts(restarts);
  const auto descend = [&](std::size_t r) {
    cuts[r] = local_search_1opt(graph, starts[r]);
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
