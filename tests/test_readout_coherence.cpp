// Coherence of the analog engine's incremental readout (PERF.md invariants 3
// and 10).  An engine with enable_incremental_readout() keeps per-run bank
// sums that only on_flips_applied() moves; this suite drives the annealer's
// protocol -- evaluate a flip set, apply some of them, report each applied
// set -- and after every applied set compares the live state with a fresh
// engine's rebuild from the same spins, bit for bit.  The sums are exact on
// arrays that support the incremental readout, so any drift, missed cell
// or wrong bank shows up as an inequality rather than a tolerance miss.
//
// Covered: monolithic and tiled arrays, one and two weight planes, stuck
// faults, read noise on and off (squared sums tracked or not), and a model
// with a pinned ancilla whose row couples to every column.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/insitu_annealer.hpp"
#include "crossbar/analog_engine.hpp"
#include "ising/ising_model.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;

struct CoherenceCase {
  std::string name;
  std::shared_ptr<const ising::IsingModel> model;
  int bits = 8;
  crossbar::TileShape tiles{};
  device::VariationParams variation{};
};

std::shared_ptr<const ising::IsingModel> maxcut_model(
    std::size_t n, double degree, problems::WeightScheme weights,
    std::uint64_t seed) {
  return std::make_shared<const ising::IsingModel>(problems::maxcut_to_ising(
      problems::random_graph(n, degree, weights, seed)));
}

/// Random signed couplings plus local fields, folded into a pure quadratic
/// form with one always-up ancilla spin (the last one).
std::shared_ptr<const ising::IsingModel> ancilla_model(std::size_t n,
                                                       std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::CsrMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.bernoulli(0.2))
        builder.add_symmetric(i, j, rng.uniform(-2.0, 2.0));
  std::vector<double> fields(n);
  for (auto& h : fields) h = rng.uniform(-1.5, 1.5);
  return std::make_shared<const ising::IsingModel>(
      ising::IsingModel(builder.build(), fields).with_ancilla());
}

std::vector<CoherenceCase> cases() {
  std::vector<CoherenceCase> out;
  const device::VariationParams noisy{0.03, 0.02, 0.0, 0.0};
  out.push_back({"monolithic-one-plane",
                 maxcut_model(96, 12.0, problems::WeightScheme::kUnit, 1), 8,
                 {}, noisy});
  out.push_back(
      {"monolithic-two-planes",
       maxcut_model(80, 9.0, problems::WeightScheme::kPlusMinusOne, 2), 6,
       {}, noisy});
  out.push_back(
      {"tiled-two-planes",
       maxcut_model(90, 10.0, problems::WeightScheme::kPlusMinusOne, 3), 8,
       crossbar::TileShape{16, 0}, noisy});
  out.push_back({"tiled-one-row-bands",
                 maxcut_model(40, 6.0, problems::WeightScheme::kUnit, 4), 4,
                 crossbar::TileShape{1, 0}, noisy});
  out.push_back({"stuck-faults",
                 maxcut_model(72, 10.0, problems::WeightScheme::kPlusMinusOne,
                              5),
                 5, crossbar::TileShape{24, 0}, {0.02, 0.02, 0.08, 0.04}});
  out.push_back({"adc-noise-only",
                 maxcut_model(64, 8.0, problems::WeightScheme::kUnit, 6), 8,
                 {}, {0.03, 0.0, 0.0, 0.0}});
  out.push_back({"pinned-ancilla", ancilla_model(30, 7), 8,
                 crossbar::TileShape{8, 0}, noisy});
  return out;
}

/// Flip set of |F| in [1, 4] over the flippable spins; half the sets grow
/// along couplings so neighbouring flips (cells inside each other's
/// columns) are common.
ising::FlipSet propose(const ising::IsingModel& model, util::Rng& rng) {
  const std::size_t flippable = model.num_flippable();
  const std::size_t t = 1 + rng.uniform_index(std::min<std::size_t>(4, flippable));
  ising::FlipSet flips;
  const bool walk = rng.bernoulli(0.5);
  while (flips.size() < t) {
    std::uint32_t next =
        static_cast<std::uint32_t>(rng.uniform_index(flippable));
    if (walk && !flips.empty()) {
      const auto neighbors = model.couplings().row_cols(flips.back());
      if (!neighbors.empty())
        next = neighbors[rng.uniform_index(neighbors.size())];
    }
    if (next >= flippable ||
        std::find(flips.begin(), flips.end(), next) != flips.end())
      continue;
    flips.push_back(next);
  }
  return flips;
}

void expect_equal_spans(std::span<const double> live,
                        std::span<const double> fresh) {
  ASSERT_EQ(live.size(), fresh.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    ASSERT_EQ(live[i], fresh[i]) << "slot " << i;
}

TEST(ReadoutCoherence, LiveStateEqualsRebuildAfterEveryAppliedSet) {
  for (const auto& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto& model = *c.model;
    const crossbar::QuantizedCouplings quantized(model.couplings(), c.bits);
    core::InSituConfig config;
    config.mapping.bits = c.bits;
    config.analog.adc.noise_lsb_rms = 0.5;
    const crossbar::CrossbarMapping mapping(
        model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
    const auto array = std::make_shared<const crossbar::ProgrammedArray>(
        quantized, mapping, config.device, c.variation, 0xc0be, c.tiles);
    ASSERT_TRUE(array->supports_incremental_readout());
    EXPECT_EQ(array->num_bands() > 1, !c.tiles.monolithic());

    crossbar::AnalogCrossbarEngine live(array, config.analog);
    live.enable_incremental_readout();
    ASSERT_TRUE(live.incremental_readout());
    live.begin_run(11);
    EXPECT_TRUE(live.incremental_state().empty());  // built by the first evaluate

    util::Rng rng(0xc0 + c.bits);
    auto spins = ising::random_spins(model.num_spins(), rng);
    if (model.has_ancilla()) spins.back() = 1;
    const crossbar::AnnealSignal signal{0.7, 0.6};
    std::size_t applied = 0;
    for (int step = 0; step < 120; ++step) {
      const auto flips = propose(model, rng);
      (void)live.evaluate(spins, flips, signal);
      if (!rng.bernoulli(0.4)) continue;
      ising::flip_in_place(spins, flips);
      live.on_flips_applied(spins, flips);
      ++applied;

      crossbar::AnalogCrossbarEngine fresh(array, config.analog);
      fresh.enable_incremental_readout();
      (void)fresh.evaluate(spins, ising::FlipSet{0}, signal);
      SCOPED_TRACE(::testing::Message() << "step " << step);
      expect_equal_spans(live.incremental_state(), fresh.incremental_state());
      // Sums and totals per slot, plus their squared sums with read noise.
      EXPECT_EQ(live.incremental_state().size(),
                array->num_slots() *
                    (c.variation.read_noise_rel > 0.0 ? 4 : 2));
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(applied, 20u);
  }
}

TEST(ReadoutCoherence, BeginRunRebuildsFromTheNextEvaluation) {
  const auto model = maxcut_model(48, 8.0, problems::WeightScheme::kUnit, 9);
  const crossbar::QuantizedCouplings quantized(model->couplings(), 8);
  core::InSituConfig config;
  const crossbar::CrossbarMapping mapping(model->num_spins(), 1,
                                          config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device,
      device::VariationParams{0.03, 0.02, 0.0, 0.0}, 3);
  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  engine.enable_incremental_readout();
  util::Rng rng(4);
  const auto first = ising::random_spins(model->num_spins(), rng);
  const auto second = ising::random_spins(model->num_spins(), rng);
  (void)engine.evaluate(first, ising::FlipSet{1}, {});
  const std::vector<double> from_first(engine.incremental_state().begin(),
                                       engine.incremental_state().end());
  // A wholesale spin rewrite is reported by begin_run: the state drops and
  // the next evaluation rebuilds it from the spins it is handed.
  engine.begin_run(5);
  EXPECT_TRUE(engine.incremental_state().empty());
  engine.on_flips_applied(second, ising::FlipSet{2});  // no state: no-op
  (void)engine.evaluate(second, ising::FlipSet{1}, {});
  crossbar::AnalogCrossbarEngine fresh(array, config.analog);
  fresh.enable_incremental_readout();
  (void)fresh.evaluate(second, ising::FlipSet{1}, {});
  expect_equal_spans(engine.incremental_state(), fresh.incremental_state());
  EXPECT_NE(from_first,
            std::vector<double>(fresh.incremental_state().begin(),
                                fresh.incremental_state().end()));
}

TEST(ReadoutCoherence, DuplicateFlipsAreRejectedWithoutStaleMask) {
  const auto model = maxcut_model(32, 6.0, problems::WeightScheme::kUnit, 8);
  const crossbar::QuantizedCouplings quantized(model->couplings(), 8);
  core::InSituConfig config;
  const crossbar::CrossbarMapping mapping(model->num_spins(), 1,
                                          config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device,
      device::VariationParams{0.03, 0.02, 0.0, 0.0}, 3);
  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  crossbar::AnalogCrossbarEngine reference(array, config.analog);
  engine.enable_incremental_readout();
  util::Rng rng(6);
  const auto spins = ising::random_spins(model->num_spins(), rng);
  EXPECT_THROW((void)engine.evaluate(spins, ising::FlipSet{4, 7, 4}, {}),
               contract_error);
  // The rejected call left no flip marked: the next evaluation agrees with
  // a stateless sweep at the same cursor.
  const auto cursor = engine.readout_noise().next_conversion;
  EXPECT_EQ(cursor, 0u);
  EXPECT_EQ(engine.evaluate(spins, ising::FlipSet{4, 7}, {}).e_inc,
            reference.evaluate(spins, ising::FlipSet{4, 7}, {}).e_inc);
}

TEST(ReadoutCoherence, RejectedReportsMoveNoCell) {
  const auto model = maxcut_model(64, 8.0, problems::WeightScheme::kUnit, 10);
  const crossbar::QuantizedCouplings quantized(model->couplings(), 8);
  core::InSituConfig config;
  const crossbar::CrossbarMapping mapping(model->num_spins(), 1,
                                          config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device,
      device::VariationParams{0.03, 0.02, 0.0, 0.0}, 3);
  ASSERT_TRUE(array->supports_incremental_readout());
  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  engine.enable_incremental_readout();
  util::Rng rng(12);
  auto spins = ising::random_spins(model->num_spins(), rng);
  (void)engine.evaluate(spins, ising::FlipSet{0}, {});
  const std::vector<double> before(engine.incremental_state().begin(),
                                   engine.incremental_state().end());
  ASSERT_FALSE(before.empty());

  // An index past the array, after a valid one whose cells would move
  // first if the set were checked row by row.
  ising::flip_in_place(spins, ising::FlipSet{7});
  EXPECT_THROW(engine.on_flips_applied(spins, ising::FlipSet{7, 1000}),
               contract_error);
  expect_equal_spans(engine.incremental_state(), before);
  // A repeated index: the row would leave its bank twice.
  ising::flip_in_place(spins, ising::FlipSet{9});
  EXPECT_THROW(engine.on_flips_applied(spins, ising::FlipSet{9, 9}),
               contract_error);
  expect_equal_spans(engine.incremental_state(), before);

  // The state is still the pre-report one, so the valid report applies.
  engine.on_flips_applied(spins, ising::FlipSet{7, 9});
  crossbar::AnalogCrossbarEngine fresh(array, config.analog);
  fresh.enable_incremental_readout();
  (void)fresh.evaluate(spins, ising::FlipSet{0}, {});
  expect_equal_spans(engine.incremental_state(), fresh.incremental_state());
}

}  // namespace
