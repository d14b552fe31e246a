// Spin vectors: sigma_i in {-1, +1}, stored as int8 for cache density.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace fecim::ising {

using Spin = std::int8_t;
using SpinVector = std::vector<Spin>;

/// Uniformly random +-1 configuration of length n.
SpinVector random_spins(std::size_t n, util::Rng& rng);

/// True when every element is exactly -1 or +1.
bool is_valid_spins(std::span<const Spin> spins) noexcept;

/// Spins encoded from the low n bits of `bits` (bit set -> +1); used by the
/// brute-force reference solvers.
SpinVector spins_from_bits(std::uint64_t bits, std::size_t n);

/// Copy with the listed indices flipped.
SpinVector flipped_copy(std::span<const Spin> spins,
                        std::span<const std::uint32_t> flips);

/// In-place flip of the listed indices.
void flip_in_place(SpinVector& spins, std::span<const std::uint32_t> flips);

/// Hamming distance between two configurations of equal length.
std::size_t hamming_distance(std::span<const Spin> a, std::span<const Spin> b);

}  // namespace fecim::ising
