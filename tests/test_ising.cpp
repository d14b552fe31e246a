// Tests for the Ising model: energy evaluation, delta-energy identity,
// ancilla folding, brute force, spins, flip sets.
#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "ising/flipset.hpp"
#include "ising/ising_model.hpp"
#include "util/rng.hpp"

namespace {

using fecim::ising::IsingModel;
using fecim::ising::SpinVector;
using fecim::linalg::CsrMatrix;

IsingModel random_model(std::size_t n, double density, bool with_fields,
                        fecim::util::Rng& rng) {
  CsrMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(density))
        builder.add_symmetric(i, j, rng.uniform(-1.0, 1.0));
  std::vector<double> h;
  if (with_fields) {
    h.resize(n);
    for (auto& v : h) v = rng.uniform(-0.5, 0.5);
  }
  return IsingModel(builder.build(), std::move(h), rng.uniform(-1.0, 1.0));
}

TEST(Spin, RandomSpinsAreValid) {
  fecim::util::Rng rng(1);
  const auto spins = fecim::ising::random_spins(100, rng);
  EXPECT_TRUE(fecim::ising::is_valid_spins(spins));
}

TEST(Spin, SpinsFromBits) {
  const auto spins = fecim::ising::spins_from_bits(0b101, 3);
  EXPECT_EQ(spins[0], 1);
  EXPECT_EQ(spins[1], -1);
  EXPECT_EQ(spins[2], 1);
}

TEST(Spin, FlipRoundTrip) {
  fecim::util::Rng rng(2);
  auto spins = fecim::ising::random_spins(20, rng);
  const auto original = spins;
  const std::vector<std::uint32_t> flips{1, 5, 7};
  fecim::ising::flip_in_place(spins, flips);
  EXPECT_EQ(fecim::ising::hamming_distance(spins, original), 3u);
  fecim::ising::flip_in_place(spins, flips);
  EXPECT_EQ(spins, original);
}

TEST(IsingModel, RejectsAsymmetricCouplings) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 1, 1.0);  // only one triangle
  EXPECT_THROW(IsingModel(builder.build()), fecim::contract_error);
}

TEST(IsingModel, RejectsNonzeroDiagonal) {
  CsrMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  EXPECT_THROW(IsingModel(builder.build()), fecim::contract_error);
}

TEST(IsingModel, EnergyMatchesManualComputation) {
  CsrMatrix::Builder builder(3, 3);
  builder.add_symmetric(0, 1, 2.0);
  builder.add_symmetric(1, 2, -1.0);
  const IsingModel model(builder.build(), {0.5, 0.0, -0.5}, 3.0);
  const SpinVector spins{1, -1, 1};
  // quadratic: 2*(2*1*-1) + 2*(-1*-1*1) = -4 + 2 = -2
  // linear: 0.5*1 + (-0.5)*1 = 0 ; constant 3
  EXPECT_DOUBLE_EQ(model.energy(spins), 1.0);
}

class DeltaEnergyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DeltaEnergyTest, MatchesFullRecomputation) {
  const auto [n, t_param] = GetParam();
  const std::size_t t = std::min(n, t_param);  // cannot flip more than n
  fecim::util::Rng rng(n * 31 + t);
  const auto model = random_model(n, 0.3, true, rng);
  auto spins = fecim::ising::random_spins(n, rng);

  for (int trial = 0; trial < 25; ++trial) {
    const auto flips = fecim::ising::random_flip_set(n, t, rng);
    const double before = model.energy(spins);
    const double delta = model.delta_energy(spins, flips);
    const auto flipped = fecim::ising::flipped_copy(spins, flips);
    const double after = model.energy(flipped);
    EXPECT_NEAR(delta, after - before, 1e-9)
        << "n=" << n << " t=" << t << " trial=" << trial;
    spins = flipped;  // keep walking the state space
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFlips, DeltaEnergyTest,
    ::testing::Combine(::testing::Values<std::size_t>(4, 10, 25, 60),
                       ::testing::Values<std::size_t>(1, 2, 3, 7)));

TEST(IsingModel, IncrementalVmvIsQuarterDeltaWithoutFields) {
  fecim::util::Rng rng(77);
  const auto model = random_model(30, 0.4, false, rng);
  const auto spins = fecim::ising::random_spins(30, rng);
  const auto flips = fecim::ising::random_flip_set(30, 3, rng);
  EXPECT_NEAR(4.0 * model.incremental_vmv(spins, flips),
              model.delta_energy(spins, flips), 1e-12);
}

TEST(IsingModel, DeltaRejectsDuplicateFlips) {
  fecim::util::Rng rng(78);
  const auto model = random_model(10, 0.5, false, rng);
  const auto spins = fecim::ising::random_spins(10, rng);
  const std::vector<std::uint32_t> duplicate{3, 3};
  EXPECT_THROW(model.delta_energy(spins, duplicate), fecim::contract_error);
}

TEST(IsingModel, AncillaPreservesEnergy) {
  fecim::util::Rng rng(79);
  const auto model = random_model(12, 0.4, true, rng);
  ASSERT_TRUE(model.has_fields());
  const auto folded = model.with_ancilla();
  EXPECT_FALSE(folded.has_fields());
  EXPECT_TRUE(folded.has_ancilla());
  EXPECT_EQ(folded.num_spins(), 13u);
  EXPECT_EQ(folded.num_flippable(), 12u);

  for (int trial = 0; trial < 50; ++trial) {
    auto spins = fecim::ising::random_spins(12, rng);
    auto extended = spins;
    extended.push_back(fecim::ising::Spin{1});
    EXPECT_NEAR(model.energy(spins), folded.energy(extended), 1e-9);
  }
}

TEST(IsingModel, AncillaNoopWithoutFields) {
  fecim::util::Rng rng(80);
  const auto model = random_model(8, 0.5, false, rng);
  const auto folded = model.with_ancilla();
  EXPECT_EQ(folded.num_spins(), 8u);
  EXPECT_FALSE(folded.has_ancilla());
}

TEST(IsingModel, BruteForceFindsGlobalMinimum) {
  fecim::util::Rng rng(81);
  const auto model = random_model(10, 0.5, true, rng);
  const auto [best, energy] = model.brute_force_ground_state();
  // Exhaustive cross-check.
  for (std::uint64_t bits = 0; bits < (1u << 10); ++bits) {
    const auto spins = fecim::ising::spins_from_bits(bits, 10);
    EXPECT_GE(model.energy(spins), energy - 1e-9);
  }
  EXPECT_NEAR(model.energy(best), energy, 1e-12);
}

TEST(FlipSet, RandomSetRespectsBounds) {
  fecim::util::Rng rng(90);
  for (int trial = 0; trial < 100; ++trial) {
    const auto flips = fecim::ising::random_flip_set(20, 4, rng);
    ASSERT_EQ(flips.size(), 4u);
    for (const auto f : flips) EXPECT_LT(f, 20u);
  }
}

TEST(FlipSet, RejectsOversizedRequests) {
  fecim::util::Rng rng(91);
  EXPECT_THROW(fecim::ising::random_flip_set(3, 4, rng),
               fecim::contract_error);
}

}  // namespace
