// Max-Cut <-> Ising mapping and reference solvers.
//
// With J_uv = J_vu = w_uv / 2 (zero diagonal) the Ising energy satisfies
//   E(sigma) = sum_e w_e sigma_u sigma_v,
//   cut(sigma) = (W_total - E(sigma)) / 2,
// so minimizing E maximizes the cut.  These identities are property-tested.
#pragma once

#include <cstdint>
#include <optional>

#include "ising/ising_model.hpp"
#include "problems/graph.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

/// Ising model whose ground state is the maximum cut of `graph`.
ising::IsingModel maxcut_to_ising(const Graph& graph);

/// Weight of edges crossing the partition induced by `spins`.
double cut_value(const Graph& graph, std::span<const ising::Spin> spins);

/// cut from an Ising energy: (W_total - energy) / 2.
double cut_from_energy(const Graph& graph, double energy);

/// Exhaustive optimum (n <= 24).
struct ExactCut {
  ising::SpinVector spins;
  double cut;
};
ExactCut brute_force_max_cut(const Graph& graph);

/// Passes local_search_1opt makes at most, unless told otherwise.
inline constexpr std::size_t kLocalSearchMaxPasses = 200;

/// Single-flip first-improvement local search on the cut objective: each
/// pass flips, in index order, every vertex whose gain is positive at its
/// turn, until a pass flips none (1-opt locality) or `max_passes` passes
/// ran.  Improves `spins` in place and returns the final cut value.
/// O(iterations * degree) via incremental gain maintenance.
double local_search_1opt(const Graph& graph, ising::SpinVector& spins,
                         std::size_t max_passes = kLocalSearchMaxPasses);

/// reference_cut runs its descents on the util::parallel_for pool from this
/// many edge-restarts (num_edges * restarts) up, and inline below it: a pool
/// worker waking from idle starts tens of microseconds late at the median
/// and milliseconds late in the tail, which would dominate the search on
/// small instances (PERF.md, "The setup path").
inline constexpr std::size_t kReferenceParallelEdgeRestarts =
    std::size_t{1} << 19;

/// Best-known cut proxy for instances too large to solve exactly: the best
/// of `restarts` random-start 1-opt descents, or the certified optimum for
/// bipartite unit-weight graphs (toroidal family) where max cut == |E|.
/// On a graph whose weights are all integers with m * max|w| <= 2^51
/// (every generator's, and the Gset collection's) each descent's final cut is
/// read from its gains in O(n) instead of summed over the m edges; all
/// values involved are exact doubles, so it is the same double.  The
/// result is identical for every thread count.
double reference_cut(const Graph& graph, std::size_t restarts,
                     std::uint64_t seed);

}  // namespace fecim::problems
