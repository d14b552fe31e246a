// Seeded instance generators mirroring the Stanford Gset families the paper
// evaluates on [38].  The real dataset is not available offline; these
// generators produce the same three structural families at the same sizes
// and densities, and gset_io.hpp loads genuine Gset files when present.
#pragma once

#include <cstdint>

#include "problems/graph.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

enum class WeightScheme {
  kUnit,         ///< all edges +1 (Gset G1-G21 style)
  kPlusMinusOne  ///< edges +1 or -1 with equal probability (G22+ style)
};

/// Whether random_graph(n, avg_degree, ...) can place its edges: n >= 2 and
/// round(n * avg_degree / 2) <= n (n - 1) / 2.  Callers that take sizes from
/// users check it before generating.
bool random_graph_fits(std::size_t n, double avg_degree) noexcept;

/// Erdos-Renyi-like random graph with a target average degree; the generator
/// samples exactly round(n * avg_degree / 2) distinct edges.
Graph random_graph(std::size_t n, double avg_degree, WeightScheme weights,
                   std::uint64_t seed);

/// Random d-regular-ish graph via the configuration model (pair stubs,
/// reject self-loops/duplicates, re-shuffle on collision).
Graph regular_graph(std::size_t n, std::size_t degree, WeightScheme weights,
                    std::uint64_t seed);

/// rows x cols toroidal grid (every vertex degree 4).  With kUnit weights
/// and both dimensions even the graph is bipartite, so the optimal Max-Cut
/// equals the edge count -- giving instances with a *provable* optimum at
/// any size (the G48-G50 family the paper's 3000-node group mirrors).
Graph toroidal_grid(std::size_t rows, std::size_t cols, WeightScheme weights,
                    std::uint64_t seed);

/// The benchmark family dispatcher used by the figure harnesses: 800-, 1000-
/// and 2000-node groups are random graphs (Gset densities); 3000-node groups
/// are toroidal grids with known optimum.
Graph gset_like_instance(std::size_t nodes, std::uint64_t seed);

/// Average degree of gset_like_instance(nodes)'s random graph, or 0 for the
/// toroidal-grid class, which has a fixed size.
double gset_like_degree(std::size_t nodes) noexcept;

}  // namespace fecim::problems
