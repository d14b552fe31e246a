// Setup-path parallelism: problems::reference_cut runs its 1-opt restarts,
// and the crossbar::ProgrammedArray constructor samples its programming
// variation, on the util::parallel_for pool once the input passes a size
// gate.  A parallel_for nested inside a pool task runs serially inline, so
// the same call made from inside a pool task is the serial reference: every
// parallel path must reproduce it exactly.  The inputs sit above the gates
// (asserted), so a ThreadSanitizer build of this suite exercises the
// parallel code, including the lazy Graph adjacency a descent reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "crossbar/programmed_array.hpp"
#include "ising/ising_model.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;
using crossbar::ProgrammedArray;

/// Runs `body` inside a pool task, where nested parallel_for calls execute
/// serially inline.
template <typename Body>
void in_pool_task(const Body& body) {
  util::parallel_for(
      2, [&](std::size_t i) { if (i == 0) body(); }, 2);
}

// ---------------------------------------------------------------------------
// reference_cut
// ---------------------------------------------------------------------------

/// reference_cut's restart loop as it was before the descents went
/// parallel: draw a start, descend, fold the max, restart.
double serial_reference_cut(const problems::Graph& graph,
                            std::size_t restarts, std::uint64_t seed) {
  util::Rng rng(seed);
  double best = 0.0;
  for (std::size_t r = 0; r < restarts; ++r) {
    auto spins = ising::random_spins(graph.num_vertices(), rng);
    best = std::max(best, problems::local_search_1opt(graph, spins));
  }
  return best;
}

/// reference_cut at top level and inside a pool task, each on a freshly
/// generated graph (so the call itself builds the lazy adjacency), against
/// the pre-change serial loop.
void expect_reference_matches_serial(std::size_t n,
                                     problems::WeightScheme weights,
                                     std::size_t restarts,
                                     bool above_gate) {
  const auto make = [&] { return problems::random_graph(n, 12.0, weights, 5); };
  const auto probe = make();
  ASSERT_FALSE(probe.is_bipartite());  // no certified shortcut
  ASSERT_EQ(probe.num_edges() * restarts >=
                problems::kReferenceParallelEdgeRestarts,
            above_gate);

  const auto top_graph = make();
  const double top = problems::reference_cut(top_graph, restarts, 17);
  double nested = 0.0;
  const auto nested_graph = make();
  in_pool_task(
      [&] { nested = problems::reference_cut(nested_graph, restarts, 17); });
  EXPECT_EQ(top, nested);
  EXPECT_EQ(top, serial_reference_cut(probe, restarts, 17));
}

TEST(ReferenceCutParallel, PlusMinusOneGraphAboveGateMatchesSerial) {
  // All-positive weights are what trigger is_bipartite(), which builds the
  // adjacency; a +-1 graph reaches the parallel descents without it.
  expect_reference_matches_serial(2000, problems::WeightScheme::kPlusMinusOne,
                                  48, true);
}

TEST(ReferenceCutParallel, UnitGraphAboveGateMatchesSerial) {
  expect_reference_matches_serial(2000, problems::WeightScheme::kUnit, 48,
                                  true);
}

TEST(ReferenceCutParallel, GraphBelowGateMatchesSerial) {
  expect_reference_matches_serial(200, problems::WeightScheme::kPlusMinusOne,
                                  40, false);
}

TEST(ReferenceCutParallel, SingleRestartMatchesSerial) {
  expect_reference_matches_serial(2000, problems::WeightScheme::kUnit, 1,
                                  false);
}

// ---------------------------------------------------------------------------
// ProgrammedArray
// ---------------------------------------------------------------------------

/// Everything a programmed array needs, for one coupling matrix.
struct ArraySpec {
  std::shared_ptr<const ising::IsingModel> model;
  int bits = 8;
  device::VariationParams variation{};
  crossbar::TileShape tiles{};
  std::uint64_t seed = 0x5eed;

  std::unique_ptr<ProgrammedArray> build() const {
    const crossbar::QuantizedCouplings quantized(model->couplings(), bits);
    const crossbar::CrossbarMapping mapping(
        model->num_spins(), quantized.has_negative() ? 2 : 1,
        crossbar::MappingConfig{bits, 8, true});
    return std::make_unique<ProgrammedArray>(
        quantized, mapping, device::DgFefetParams{}, variation, seed, tiles);
  }
};

std::shared_ptr<const ising::IsingModel> unit_model(std::size_t n) {
  return std::make_shared<const ising::IsingModel>(problems::maxcut_to_ising(
      problems::random_graph(n, 12.0, problems::WeightScheme::kUnit, 3)));
}

/// Signed integer weights 1..15: at 4 bits the scale is exactly 0.5 and
/// the magnitudes are the weights themselves, so most cells leave some of
/// their bits absent.
std::shared_ptr<const ising::IsingModel> weighted_model(std::size_t n) {
  const auto topology =
      problems::random_graph(n, 12.0, problems::WeightScheme::kUnit, 4);
  util::Rng rng(4);
  problems::Graph graph(n);
  for (const auto& e : topology.edges()) {
    const auto w = static_cast<double>(rng.uniform_int(1, 15));
    graph.add_edge(e.u, e.v, rng.bernoulli(0.5) ? w : -w);
  }
  return std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(graph));
}

template <typename A, typename B>
bool same(const A& a, const B& b) {
  return std::ranges::equal(a, b);
}

/// Cells, fault count and every column-metadata accessor.
void expect_identical(const ProgrammedArray& a, const ProgrammedArray& b) {
  EXPECT_TRUE(same(a.multipliers(), b.multipliers()));
  EXPECT_EQ(a.num_faulted_bit_cells(), b.num_faulted_bit_cells());
  ASSERT_EQ(a.num_bands(), b.num_bands());
  const std::size_t n = a.couplings().num_spins();
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(a.column_total_present_segments(j),
              b.column_total_present_segments(j));
    EXPECT_EQ(a.column_union_present_segments(j),
              b.column_union_present_segments(j));
    EXPECT_EQ(a.column_active_bands(j), b.column_active_bands(j));
    for (std::size_t band = 0; band < a.num_bands(); ++band) {
      EXPECT_EQ(a.column_present_segments(band, j),
                b.column_present_segments(band, j));
      EXPECT_TRUE(same(a.column_slot_src(band, j), b.column_slot_src(band, j)));
      EXPECT_TRUE(same(a.column_slot_weights(band, j),
                       b.column_slot_weights(band, j)));
      EXPECT_EQ(a.column_band_cells(band, j).begin,
                b.column_band_cells(band, j).begin);
      EXPECT_EQ(a.column_band_cells(band, j).end,
                b.column_band_cells(band, j).end);
    }
  }
}

/// Independent of any chunking: every bit cell recomputed from its own
/// index (PERF.md invariant 2), then compared with the array.
void expect_cells_match_index_draws(const ArraySpec& spec,
                                    const ProgrammedArray& array) {
  const util::NoiseStream rolls(spec.seed, util::stream_site::kCellFault);
  const util::NoiseStream offsets(spec.seed, util::stream_site::kCellVth);
  const auto& v = spec.variation;
  const device::DgFefetParams device{};
  const double v_slope =
      device.transistor.slope_factor * device.transistor.thermal_voltage;
  const auto magnitudes = array.couplings().magnitudes();
  const auto bits = static_cast<std::size_t>(spec.bits);
  std::size_t faults = 0;
  std::size_t mismatches = 0;
  for (std::size_t entry = 0; entry < magnitudes.size(); ++entry) {
    const auto mag = static_cast<std::uint32_t>(std::abs(magnitudes[entry]));
    for (std::size_t b = 0; b < bits; ++b) {
      const std::size_t cell = entry * bits + b;
      float expected = 1.0F;
      const double roll = rolls.uniform01(cell);
      if (!((mag >> b) & 1u)) {
        expected = 0.0F;
      } else if (roll < v.stuck_off_rate) {
        expected = 0.0F;
        ++faults;
      } else if (roll < v.stuck_off_rate + v.stuck_on_rate) {
        ++faults;
      } else if (v.vth_sigma > 0.0) {
        expected = static_cast<float>(
            std::exp(-offsets.normal(cell, 0.0, v.vth_sigma) / v_slope));
      }
      mismatches += array.multipliers()[cell] == expected ? 0 : 1;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(array.num_faulted_bit_cells(), faults);
}

void expect_programming_matches_serial(const ArraySpec& spec) {
  const auto top = spec.build();
  ASSERT_GT(top->multipliers().size(), ProgrammedArray::kProgramChunkCells);
  std::unique_ptr<ProgrammedArray> nested;
  in_pool_task([&] { nested = spec.build(); });
  expect_identical(*top, *nested);
  expect_cells_match_index_draws(spec, *top);
}

TEST(ProgrammingParallel, VthOnlyArrayAboveChunkGateMatchesSerial) {
  // Zero stuck rates: the fault roll is skipped.
  expect_programming_matches_serial(
      {unit_model(2000), 8, {0.03, 0.02, 0.0, 0.0}, {}});
}

TEST(ProgrammingParallel, FaultyTiledArrayAboveChunkGateMatchesSerial) {
  expect_programming_matches_serial(
      {weighted_model(3000), 4, {0.03, 0.0, 0.3, 0.2}, {512, 0}});
}

TEST(ProgrammingParallel, FaultCountCoversPresentBitsOnly) {
  const ArraySpec spec{weighted_model(3000), 4, {0.0, 0.0, 0.3, 0.2}, {}};
  const auto array = spec.build();
  ASSERT_GT(array->multipliers().size(), ProgrammedArray::kProgramChunkCells);

  // Recount: a present bit cell is faulted when its roll falls below
  // stuck_off + stuck_on; absent bits never conduct and never count.
  const util::NoiseStream rolls(spec.seed, util::stream_site::kCellFault);
  const auto magnitudes = array->couplings().magnitudes();
  const auto bits = static_cast<std::size_t>(spec.bits);
  std::size_t present_faults = 0;
  std::size_t all_faults = 0;
  for (std::size_t entry = 0; entry < magnitudes.size(); ++entry) {
    const auto mag = static_cast<std::uint32_t>(std::abs(magnitudes[entry]));
    for (std::size_t b = 0; b < bits; ++b) {
      const bool faulted = rolls.uniform01(entry * bits + b) < 0.5;
      all_faults += faulted ? 1 : 0;
      if ((mag >> b) & 1u) present_faults += faulted ? 1 : 0;
    }
  }
  EXPECT_EQ(array->num_faulted_bit_cells(), present_faults);
  EXPECT_LT(present_faults, all_faults);  // the instance has absent bits
}

}  // namespace
