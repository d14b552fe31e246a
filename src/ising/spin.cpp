#include "ising/spin.hpp"

#include "util/assert.hpp"

namespace fecim::ising {

SpinVector random_spins(std::size_t n, util::Rng& rng) {
  SpinVector spins(n);
  for (auto& s : spins) s = static_cast<Spin>(rng.spin());
  return spins;
}

bool is_valid_spins(std::span<const Spin> spins) noexcept {
  for (const Spin s : spins)
    if (s != 1 && s != -1) return false;
  return true;
}

SpinVector spins_from_bits(std::uint64_t bits, std::size_t n) {
  FECIM_EXPECTS(n <= 64);
  SpinVector spins(n);
  for (std::size_t i = 0; i < n; ++i)
    spins[i] = (bits >> i) & 1u ? Spin{1} : Spin{-1};
  return spins;
}

SpinVector flipped_copy(std::span<const Spin> spins,
                        std::span<const std::uint32_t> flips) {
  SpinVector out(spins.begin(), spins.end());
  flip_in_place(out, flips);
  return out;
}

void flip_in_place(SpinVector& spins, std::span<const std::uint32_t> flips) {
  for (const auto idx : flips) {
    FECIM_EXPECTS(idx < spins.size());
    spins[idx] = static_cast<Spin>(-spins[idx]);
  }
}

std::size_t hamming_distance(std::span<const Spin> a,
                             std::span<const Spin> b) {
  FECIM_EXPECTS(a.size() == b.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.size(); ++i) count += a[i] != b[i];
  return count;
}

}  // namespace fecim::ising
