#include "ising/flipset.hpp"

#include "util/assert.hpp"

namespace fecim::ising {

FlipSet random_flip_set(std::size_t n_flippable, std::size_t t,
                        util::Rng& rng) {
  FlipSet flips;
  random_flip_set_into(flips, n_flippable, t, rng);
  return flips;
}

void random_flip_set_into(FlipSet& out, std::size_t n_flippable,
                          std::size_t t, util::Rng& rng) {
  FECIM_EXPECTS(t > 0);
  FECIM_EXPECTS(t <= n_flippable);
  rng.sample_without_replacement_into(static_cast<std::uint32_t>(n_flippable),
                                      static_cast<std::uint32_t>(t), out);
}

}  // namespace fecim::ising
