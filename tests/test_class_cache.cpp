// Campaign results of every readout regime, and programming independent of
// read noise.
//
//  * Campaign guard -- the FNV-1a digests below pin every run record and the
//    summed ledger of noisy, tiled, simulated-bifurcation (both variants,
//    monolithic and tiled) and noise-free (read noise 0, ADC noise 0)
//    campaigns.  A mismatch means programming or
//    the readout changed results -- fix the code, never re-pin.
//  * Lean vs full -- the same couplings, seed and tile shape programmed
//    with and without read noise must agree on every cell, every
//    sweep-metadata accessor and the footprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/insitu_annealer.hpp"
#include "core/runner.hpp"
#include "crossbar/programmed_array.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;
using crossbar::ProgrammedArray;

/// Signed integer weights 1..15 on a random topology: at 8 bits most
/// magnitudes leave some bits absent, so both the dense and the sparse
/// conversion units run.
problems::Graph weighted_graph(std::size_t n, std::uint64_t seed) {
  const auto topology =
      problems::random_graph(n, 8.0, problems::WeightScheme::kUnit, seed);
  util::Rng rng(seed);
  problems::Graph graph(n);
  for (const auto& e : topology.edges()) {
    const auto w = static_cast<double>(rng.uniform_int(1, 15));
    graph.add_edge(e.u, e.v, rng.bernoulli(0.5) ? w : -w);
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Campaign guard
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

/// Digest of every run record and the summed ledger of a campaign.
std::uint64_t campaign_digest(const core::CampaignResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.completed));
  for (const auto& run : result.per_run) {
    hash = fnv1a(hash, run.seed);
    hash = fnv1a(hash, static_cast<std::uint64_t>(run.status));
    hash = fnv1a(hash, static_cast<std::uint64_t>(run.attempt));
    hash = fnv1a(hash, run.best_energy);
    hash = fnv1a(hash, run.solution.objective);
    hash = fnv1a(hash, static_cast<std::uint64_t>(run.solution.feasible));
    hash = fnv1a(hash, run.solution.violations);
    for (const auto spin : run.best_spins)
      hash = fnv1a(hash, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(spin)));
  }
  const auto& ledger = result.total_ledger;
  for (const std::uint64_t count :
       {ledger.iterations, ledger.adc_conversions, ledger.mux_slot_cycles,
        ledger.row_drives, ledger.column_drives, ledger.bg_dac_updates,
        ledger.exp_evaluations, ledger.spin_updates, ledger.crossbar_passes,
        ledger.tile_activations, ledger.partial_sum_updates})
    hash = fnv1a(hash, count);
  return hash;
}

enum class GuardCase {
  kNoisyMonolithic,  ///< StandardSetup defaults (vth 0.03, read noise 0.02)
  kNoisyTiled,       ///< the same on a 4-band tile grid
  kSbBallistic,      ///< simulated bifurcation, StandardSetup defaults
  kSbDiscreteTiled,  ///< discrete simulated bifurcation on the tile grid
  kDeterministic,    ///< read noise 0, ADC noise 0: the sigma = 0 readout
  kDeterministicTiled,
};

struct GuardGolden {
  const char* name;
  GuardCase which;
  std::uint64_t adc_conversions;
  std::uint64_t digest;
};

// make_maxcut_problem("guard", weighted_graph(160, 21), 16, 3), 4 runs from
// base seed 42, 1500 in-situ iterations or 40 SB steps, tile grid {48, 0}.
// Re-pinned once, on purpose: "deterministic tiled", when noise-free tiles
// began converting per tile like noisy ones instead of once per logical
// segment.
constexpr GuardGolden kGuardGoldens[] = {
    {"noisy monolithic", GuardCase::kNoisyMonolithic, 341896,
     0x7a1cbf13a176b81dull},
    {"noisy tiled", GuardCase::kNoisyTiled, 660424, 0x0e7212cc686b03c3ull},
    {"sb-ballistic", GuardCase::kSbBallistic, 720640, 0xfa36be36ab0eed1cull},
    {"sb-discrete tiled", GuardCase::kSbDiscreteTiled, 1363840,
     0x9ff94698b049cd46ull},
    {"deterministic", GuardCase::kDeterministic, 342392,
     0xaf640a1019249d47ull},
    {"deterministic tiled", GuardCase::kDeterministicTiled, 659000,
     0xe6f1101a3e15481bull},
};

std::unique_ptr<core::Annealer> guard_annealer(
    GuardCase which, const core::ProblemInstance& problem) {
  const crossbar::TileShape tiled{48, 0};
  core::StandardSetup setup;
  setup.iterations = 1500;
  switch (which) {
    case GuardCase::kNoisyMonolithic:
      return core::make_annealer(core::AnnealerKind::kThisWork, problem.model,
                                 setup);
    case GuardCase::kNoisyTiled:
      setup.tiles = tiled;
      return core::make_annealer(core::AnnealerKind::kThisWork, problem.model,
                                 setup);
    case GuardCase::kSbBallistic:
      setup.iterations = 40;
      return core::make_annealer(core::AnnealerKind::kSbBallistic,
                                 problem.model, setup);
    case GuardCase::kSbDiscreteTiled:
      setup.iterations = 40;
      setup.tiles = tiled;
      return core::make_annealer(core::AnnealerKind::kSbDiscrete,
                                 problem.model, setup);
    case GuardCase::kDeterministic:
    case GuardCase::kDeterministicTiled: {
      core::InSituConfig config;
      config.iterations = setup.iterations;
      config.acceptance_gain = setup.acceptance_gain;
      config.mapping = {setup.bits, setup.mux_ratio};
      config.variation = {0.03, 0.0, 0.0, 0.0};
      config.analog.adc.noise_lsb_rms = 0.0;
      if (which == GuardCase::kDeterministicTiled) config.tiles = tiled;
      return std::make_unique<core::InSituCimAnnealer>(problem.model, config);
    }
  }
  return nullptr;
}

TEST(ClassCacheGuard, CampaignsMatchParentDigests) {
  const auto problem =
      problems::make_maxcut_problem("guard", weighted_graph(160, 21), 16, 3);
  core::CampaignConfig config;
  config.runs = 4;
  for (const auto& golden : kGuardGoldens) {
    const auto annealer = guard_annealer(golden.which, problem);
    const auto result = core::run_campaign(*annealer, problem, config);
    ASSERT_EQ(result.completed, config.runs) << golden.name;
    EXPECT_EQ(result.total_ledger.adc_conversions, golden.adc_conversions)
        << golden.name;
    EXPECT_EQ(campaign_digest(result), golden.digest)
        << golden.name << std::hex << " digest 0x" << campaign_digest(result)
        << ": programming or the readout changed campaign results -- fix "
           "the code, do not re-pin this digest (the one deliberate re-pin, "
           "deterministic tiled, moved noise-free tiles to per-tile "
           "conversion)";
  }
}

// ---------------------------------------------------------------------------
// Lean vs full
// ---------------------------------------------------------------------------

ising::IsingModel unit_model(std::size_t n) {
  return problems::maxcut_to_ising(
      problems::random_graph(n, 10.0, problems::WeightScheme::kUnit, 9));
}

ising::IsingModel signed_model(std::size_t n) {
  return problems::maxcut_to_ising(weighted_graph(n, 9));
}

/// Programs `model` with V_TH spread, both stuck faults and the given read
/// noise; everything else is fixed, so two calls differ only in read noise.
std::unique_ptr<ProgrammedArray> program(const ising::IsingModel& model,
                                         int bits, double read_noise,
                                         const crossbar::TileShape& tiles) {
  const crossbar::QuantizedCouplings quantized(model.couplings(), bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1,
      crossbar::MappingConfig{bits, 8, true});
  return std::make_unique<ProgrammedArray>(
      quantized, mapping, device::DgFefetParams{},
      device::VariationParams{0.03, read_noise, 0.02, 0.01}, 0x5eed, tiles);
}

template <typename A, typename B>
bool same(const A& a, const B& b) {
  return std::ranges::equal(a, b);
}

/// Cells and every sweep-metadata accessor.
void expect_same_sweep_metadata(const ProgrammedArray& a,
                                const ProgrammedArray& b) {
  EXPECT_TRUE(same(a.multipliers(), b.multipliers()));
  EXPECT_EQ(a.num_faulted_bit_cells(), b.num_faulted_bit_cells());
  ASSERT_EQ(a.num_bands(), b.num_bands());
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < a.couplings().num_spins(); ++j) {
    mismatches += a.column_total_present_segments(j) !=
                  b.column_total_present_segments(j);
    mismatches += a.column_union_present_segments(j) !=
                  b.column_union_present_segments(j);
    mismatches += a.column_active_bands(j) != b.column_active_bands(j);
    for (std::size_t band = 0; band < a.num_bands(); ++band) {
      mismatches += a.column_band_cells(band, j).begin !=
                    b.column_band_cells(band, j).begin;
      mismatches += a.column_band_cells(band, j).end !=
                    b.column_band_cells(band, j).end;
      mismatches += a.column_present_segments(band, j) !=
                    b.column_present_segments(band, j);
      mismatches +=
          !same(a.column_slot_src(band, j), b.column_slot_src(band, j));
      mismatches += !same(a.column_slot_weights(band, j),
                          b.column_slot_weights(band, j));
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Recounts presence and the conversion slots from column() and bands()
/// alone: a (band, bit, plane) segment is present when a cell of the band
/// stores the bit with the plane's sign, whatever its multiplier.
void expect_slots_match_cells(const ProgrammedArray& array) {
  const auto bits = static_cast<std::size_t>(array.couplings().bits());
  const auto bands = array.bands();
  std::size_t mismatches = 0;
  for (std::size_t j = 0; j < array.couplings().num_spins(); ++j) {
    const auto view = array.column(j);
    std::uint32_t total = 0;
    std::uint32_t active = 0;
    std::vector<bool> in_union(bits * 2, false);
    for (std::size_t band = 0; band < bands.size(); ++band) {
      std::vector<std::uint8_t> src;
      std::vector<double> weights;
      for (std::size_t b = 0; b < bits; ++b) {
        for (std::size_t plane = 0; plane < 2; ++plane) {
          bool present = false;
          for (std::size_t k = 0; k < view.rows.size(); ++k) {
            const auto mag = view.magnitudes[k];
            present |= view.rows[k] >= bands[band].row_begin &&
                       view.rows[k] < bands[band].row_end &&
                       ((std::abs(mag) >> b) & 1) != 0 &&
                       (mag < 0) == (plane == 1);
          }
          if (!present) continue;
          src.push_back(static_cast<std::uint8_t>(plane * bits + b));
          weights.push_back((plane == 0 ? 1.0 : -1.0) *
                            static_cast<double>(1u << b));
          in_union[b * 2 + plane] = true;
        }
      }
      mismatches += !same(array.column_slot_src(band, j), src);
      mismatches += !same(array.column_slot_weights(band, j), weights);
      mismatches += array.column_present_segments(band, j) != src.size();
      total += static_cast<std::uint32_t>(src.size());
      active += src.empty() ? 0 : 1;
    }
    mismatches += array.column_total_present_segments(j) != total;
    mismatches += array.column_active_bands(j) != active;
    mismatches += array.column_union_present_segments(j) !=
                  static_cast<std::uint32_t>(
                      std::ranges::count(in_union, true));
  }
  EXPECT_EQ(mismatches, 0u);
}

void expect_lean_matches_full(const ising::IsingModel& model, int bits,
                              const crossbar::TileShape& tiles) {
  const auto full = program(model, bits, 0.0, tiles);
  const auto lean = program(model, bits, 0.02, tiles);
  if (!tiles.monolithic()) {
    ASSERT_GT(lean->num_bands(), 1u);
  }

  // Read noise never enters programming.
  expect_same_sweep_metadata(*lean, *full);
  expect_slots_match_cells(*lean);
  EXPECT_EQ(lean->approx_bytes(), full->approx_bytes());
}

TEST(LeanArray, MonolithicUnitWeightsMatchFull) {
  expect_lean_matches_full(unit_model(300), 8, {});
}

TEST(LeanArray, MonolithicSignedWeightsMatchFull) {
  expect_lean_matches_full(signed_model(300), 8, {});
}

TEST(LeanArray, TiledUnitWeightsMatchFull) {
  expect_lean_matches_full(unit_model(300), 8, {70, 0});
}

TEST(LeanArray, TiledSignedWeightsMatchFull) {
  // 4 bits: weights 1..15 map to magnitudes 1..15, most with absent bits.
  expect_lean_matches_full(signed_model(300), 4, {70, 0});
}

}  // namespace
