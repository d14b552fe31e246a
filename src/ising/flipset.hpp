// Flip-set generation: which |F| = t spins a move proposes to flip.
//
// The paper holds |F| constant, which is what turns the O(n^2) direct-E
// VMV into the O(n) incremental form (Fig. 5: (n - |F|) * |F| terms).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace fecim::ising {

using FlipSet = std::vector<std::uint32_t>;

/// Uniformly random set of `t` distinct spin indices out of `n_flippable`.
FlipSet random_flip_set(std::size_t n_flippable, std::size_t t,
                        util::Rng& rng);

/// Allocation-free variant for annealer inner loops: clears and refills
/// `out`, reusing its capacity.  Same RNG draw order and contents as
/// random_flip_set for the same engine state.
void random_flip_set_into(FlipSet& out, std::size_t n_flippable,
                          std::size_t t, util::Rng& rng);

}  // namespace fecim::ising
