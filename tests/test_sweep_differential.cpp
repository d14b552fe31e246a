// Randomized differential layer over the analog readout sweep: ~200 seeded
// configurations drawn across the whole contract surface -- problem size
// N in [3, 257], tile shapes down to 1-row bands, weight schemes (single-
// and two-plane), bit widths, variation seeds, Vth spread and stuck-fault
// masks -- each evaluated in one of the four readout regimes (noise-free,
// ADC-noise-only, read-noise-only, both).  For every configuration the
// vectorized engine must match the per-cell reference kernel bit for bit
// (e_inc, raw_vmv, the conversion ledger) with the keyed-noise conversion
// cursors in lockstep after every evaluation.
//
// This suite is the fuzzing counterpart of the hand-picked pins in
// tests/test_perf_equivalence.cpp and tests/test_tiled_engine.cpp: those
// freeze known-interesting cases; this one walks the configuration space so
// a data-parallel rewrite of the sweep (batched draws, lane-major
// conversion, the shared unit scratch) cannot quietly change results on a
// shape nobody pinned.  Every configuration derives from a single counter
// seed, so a failure report ("config 137") reproduces in isolation.
//
// A second layer drives annealing-style sequences -- evaluate a flip set,
// apply some, report each applied set -- through three readouts at once:
// the engine with the incremental readout (PERF.md invariant 10), the
// stateless sweep, and the reference kernel.  All three must agree bit for
// bit on e_inc, the ledger and the cursor after every step, for |F| in
// [1, 4], neighbouring and unrelated flips, random tilings and every readout
// regime.  Two gate cases pin the arrays that must stay on the sweep and
// store nothing extra: one that fails the exactness proof and one above the
// size rule.
//
// A third layer checks simulated bifurcation's batched full-field read
// (evaluate_columns) on the same configurations, a quarter of them with
// random local fields folded into a pinned ancilla: the analog override on
// the sweep and on bank sums against the base per-column loop, bit for bit
// on every raw_vmv, the ledger and the cursor, before and after random
// drive-change sets.
//
// A fourth case drives one long-lived engine through interleaved
// evaluations, full-field reads, applied flip sets and run restarts, on one
// band and on short tiles, with reads that straddle the engine's
// draw-window boundary and reads that need more than a window: every
// readout matches a fresh engine of the same run and the reference kernel,
// bit for bit, cursor included.
//
// Labeled `differential` (and excluded from the tier-1 fast loop) in
// CMakeLists.txt; tools/check.sh --sanitize runs it under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/insitu_annealer.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/rng.hpp"

namespace {

using namespace fecim;

struct DifferentialConfig {
  std::size_t n = 0;
  int bits = 8;
  problems::WeightScheme weights = problems::WeightScheme::kPlusMinusOne;
  crossbar::TileShape tiles{};
  device::VariationParams variation{};
  double adc_noise_lsb = 0.0;
  std::uint64_t graph_seed = 0;
  std::uint64_t array_seed = 0;
  std::uint64_t run_seed = 0;
};

/// Configuration `index` of the deterministic schedule: every field derives
/// from Rng(index), so any failing case reproduces standalone.
DifferentialConfig make_config(std::uint64_t index) {
  util::Rng rng(0xd1ffe4e57ULL ^ (index * 0x9e3779b97f4a7c15ULL));
  DifferentialConfig cfg;
  cfg.n = 3 + rng.uniform_index(255);  // [3, 257]
  cfg.bits = 2 + static_cast<int>(rng.uniform_index(7));  // [2, 8]
  // kUnit quantizes to a single weight plane (no negative couplings), so the
  // negative-plane segments are absent end to end -- a sparsity class of its
  // own.
  cfg.weights = rng.bernoulli(0.25) ? problems::WeightScheme::kUnit
                                    : problems::WeightScheme::kPlusMinusOne;
  switch (rng.uniform_index(4)) {
    case 0:  // monolithic logical array
      cfg.tiles = {};
      break;
    case 1:  // degenerate 1-row bands: every cell is its own tile row
      cfg.tiles = crossbar::TileShape{1, 0};
      break;
    case 2:  // short bands (2..8 rows): many partially-present tiles
      cfg.tiles = crossbar::TileShape{2 + rng.uniform_index(7), 0};
      break;
    default:  // anything up to (and beyond) the full height
      cfg.tiles = crossbar::TileShape{1 + rng.uniform_index(cfg.n + 8), 0};
      break;
  }
  cfg.variation.vth_sigma = rng.bernoulli(0.7) ? rng.uniform(0.0, 0.08) : 0.0;
  // Stuck-fault masks: stuck-off cells make individual (bit, plane) segments
  // vanish per band, stuck-on cells pin full-drive multipliers -- both
  // reshape the present-segment map the sweep and the cursor walk.
  if (rng.bernoulli(0.5)) cfg.variation.stuck_off_rate = rng.uniform(0.0, 0.1);
  if (rng.bernoulli(0.3)) cfg.variation.stuck_on_rate = rng.uniform(0.0, 0.05);
  // Four readout regimes, round-robin so each gets ~50 configurations:
  // noise-free (sigma = 0), ADC-noise-only (the track_sq=false fast path),
  // read-noise-only, and both noise sources in quadrature.
  switch (index % 4) {
    case 0:
      break;
    case 1:
      cfg.adc_noise_lsb = rng.uniform(0.1, 1.0);
      break;
    case 2:
      cfg.variation.read_noise_rel = rng.uniform(0.005, 0.04);
      break;
    default:
      cfg.adc_noise_lsb = rng.uniform(0.1, 1.0);
      cfg.variation.read_noise_rel = rng.uniform(0.005, 0.04);
      break;
  }
  cfg.graph_seed = rng();
  cfg.array_seed = rng();
  cfg.run_seed = rng();
  return cfg;
}

/// Runs one configuration: a handful of random (spins, flips, signal)
/// evaluations, each checked engine-vs-reference bit for bit with the
/// conversion cursors compared after every call.
void run_config(const DifferentialConfig& cfg, std::uint64_t index) {
  const double degree =
      std::min(static_cast<double>(cfg.n - 1), 6.0);
  const auto model = problems::maxcut_to_ising(problems::random_graph(
      cfg.n, degree, cfg.weights, cfg.graph_seed));

  core::InSituConfig config;
  config.mapping.bits = cfg.bits;
  config.analog.adc.noise_lsb_rms = cfg.adc_noise_lsb;

  const crossbar::QuantizedCouplings quantized(model.couplings(), cfg.bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device, cfg.variation, cfg.array_seed,
      cfg.tiles);

  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  const double i_on_max = array->on_current(array->device_params().vbg_max);
  const double vbg_max = array->device_params().vbg_max;

  engine.begin_run(cfg.run_seed);
  auto noise_ref = crossbar::ReadoutNoise::for_run(cfg.run_seed);

  util::Rng trial_rng(cfg.run_seed ^ 0x7a1a15ULL);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << "config " << index << " trial "
                                      << trial << " n=" << cfg.n
                                      << " tiles.rows=" << cfg.tiles.rows);
    const std::size_t t =
        1 + trial_rng.uniform_index(std::min<std::size_t>(cfg.n, 5));
    const auto flips =
        ising::random_flip_set(model.num_spins(), t, trial_rng);
    const auto spins = ising::random_spins(model.num_spins(), trial_rng);
    const crossbar::AnnealSignal signal{trial_rng.uniform01(),
                                        trial_rng.uniform(0.3, vbg_max)};

    const auto optimized = engine.evaluate(spins, flips, signal);
    const auto reference = crossbar::reference::analog_evaluate(
        *array, engine.adc(), engine.band_attenuations(), i_on_max, spins,
        flips, signal, noise_ref);

    // Bit identity, not tolerance: the sweep's regrouping must be exact.
    ASSERT_EQ(optimized.e_inc, reference.e_inc);
    ASSERT_EQ(optimized.raw_vmv, reference.raw_vmv);
    ASSERT_EQ(optimized.trace.adc_conversions,
              reference.trace.adc_conversions);
    ASSERT_EQ(optimized.trace.partial_sum_updates,
              reference.trace.partial_sum_updates);
    ASSERT_EQ(optimized.trace.tile_activations,
              reference.trace.tile_activations);
    ASSERT_EQ(optimized.trace.mux_slot_cycles,
              reference.trace.mux_slot_cycles);
    // Cursor lockstep: both sides assigned the same keyed index to every
    // conversion, so the *next* evaluation starts aligned too.
    ASSERT_EQ(engine.readout_noise().next_conversion,
              noise_ref.next_conversion);
  }
}

constexpr std::uint64_t kNumConfigs = 200;

TEST(SweepDifferential, EngineMatchesReferenceAcrossRandomizedConfigs) {
  for (std::uint64_t index = 0; index < kNumConfigs; ++index) {
    const auto cfg = make_config(index);
    run_config(cfg, index);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "first divergence at config " << index;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental readout vs stateless sweep vs reference along sequences.
// ---------------------------------------------------------------------------

struct Programmed {
  std::shared_ptr<const ising::IsingModel> model;
  std::shared_ptr<const crossbar::ProgrammedArray> array;
  core::InSituConfig config;
};

/// The configuration's Max-Cut model programmed into an array; with
/// `ancilla`, random local fields are folded into one always-up spin (the
/// last), whose row couples to every column.
Programmed program(const DifferentialConfig& cfg, double degree,
                   bool ancilla = false) {
  Programmed p;
  auto model = problems::maxcut_to_ising(problems::random_graph(
      cfg.n, std::min(static_cast<double>(cfg.n - 1), degree), cfg.weights,
      cfg.graph_seed));
  if (ancilla) {
    util::Rng rng(cfg.graph_seed ^ 0xa2c111aULL);
    std::vector<double> fields(model.num_spins());
    for (auto& h : fields) h = rng.uniform(-1.5, 1.5);
    model = ising::IsingModel(model.couplings(), std::move(fields))
                .with_ancilla();
  }
  p.model = std::make_shared<const ising::IsingModel>(std::move(model));
  p.config.mapping.bits = cfg.bits;
  p.config.analog.adc.noise_lsb_rms = cfg.adc_noise_lsb;
  const crossbar::QuantizedCouplings quantized(p.model->couplings(),
                                               cfg.bits);
  const crossbar::CrossbarMapping mapping(p.model->num_spins(),
                                          quantized.has_negative() ? 2 : 1,
                                          p.config.mapping);
  p.array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, p.config.device, cfg.variation, cfg.array_seed,
      cfg.tiles);
  return p;
}

/// |F| in [1, 4]; a neighbour walk half the time (flipped rows inside each
/// other's columns, where the incremental readout subtracts cells), a
/// uniform pick otherwise.
ising::FlipSet propose(const ising::IsingModel& model, util::Rng& rng) {
  const std::size_t n = model.num_spins();
  const std::size_t t = 1 + rng.uniform_index(std::min<std::size_t>(4, n));
  const bool walk = rng.bernoulli(0.5);
  ising::FlipSet flips;
  while (flips.size() < t) {
    auto next = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (walk && !flips.empty()) {
      const auto neighbors = model.couplings().row_cols(flips.back());
      if (!neighbors.empty() && rng.bernoulli(0.8))
        next = neighbors[rng.uniform_index(neighbors.size())];
    }
    if (std::find(flips.begin(), flips.end(), next) == flips.end())
      flips.push_back(next);
  }
  return flips;
}

/// Runs `steps` evaluate/apply steps through the three readouts and
/// returns whether the first engine actually read incremental state.
bool run_sequence(const Programmed& p, std::uint64_t run_seed, int steps) {
  const auto& array = p.array;
  crossbar::AnalogCrossbarEngine incremental(array, p.config.analog);
  crossbar::AnalogCrossbarEngine sweep(array, p.config.analog);
  incremental.enable_incremental_readout();
  incremental.begin_run(run_seed);
  sweep.begin_run(run_seed);
  auto noise_ref = crossbar::ReadoutNoise::for_run(run_seed);
  const double i_on_max = array->on_current(array->device_params().vbg_max);

  util::Rng rng(run_seed ^ 0x5e9ULL);
  auto spins = ising::random_spins(p.model->num_spins(), rng);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const auto flips = propose(*p.model, rng);
    const crossbar::AnnealSignal signal{
        rng.uniform01(), rng.uniform(0.3, array->device_params().vbg_max)};
    const auto a = incremental.evaluate(spins, flips, signal);
    const auto b = sweep.evaluate(spins, flips, signal);
    const auto r = crossbar::reference::analog_evaluate(
        *array, sweep.adc(), sweep.band_attenuations(), i_on_max, spins,
        flips, signal, noise_ref);
    for (const auto* other : {&b, &r}) {
      EXPECT_EQ(a.e_inc, other->e_inc);
      EXPECT_EQ(a.raw_vmv, other->raw_vmv);
      EXPECT_EQ(a.trace.adc_conversions, other->trace.adc_conversions);
      EXPECT_EQ(a.trace.partial_sum_updates, other->trace.partial_sum_updates);
      EXPECT_EQ(a.trace.tile_activations, other->trace.tile_activations);
      EXPECT_EQ(a.trace.mux_slot_cycles, other->trace.mux_slot_cycles);
    }
    EXPECT_EQ(incremental.readout_noise().next_conversion,
              noise_ref.next_conversion);
    EXPECT_EQ(sweep.readout_noise().next_conversion,
              noise_ref.next_conversion);
    if (::testing::Test::HasFailure()) return false;
    if (rng.bernoulli(0.35)) {
      ising::flip_in_place(spins, flips);
      incremental.on_flips_applied(spins, flips);
      sweep.on_flips_applied(spins, flips);
    }
  }
  return incremental.incremental_readout();
}

TEST(SweepDifferential, IncrementalMatchesSweepAndReferenceAlongSequences) {
  // 120 configurations from the three noisy regimes, then 40 noise-free ones
  // (sigma = 0), all with V_TH spreads the exactness proof can cover.
  constexpr std::uint64_t kNoisyConfigs = 120;
  constexpr std::uint64_t kSequenceConfigs = kNoisyConfigs + 40;
  std::size_t incremental_configs = 0;
  for (std::uint64_t index = 0; index < kSequenceConfigs; ++index) {
    auto cfg = index < kNoisyConfigs
                   ? make_config(4 * index + 1 + index % 3)
                   : make_config(4 * (index - kNoisyConfigs));
    cfg.variation.vth_sigma = std::min(cfg.variation.vth_sigma, 0.04);
    SCOPED_TRACE(::testing::Message()
                 << "sequence config " << index << " n=" << cfg.n
                 << " bits=" << cfg.bits << " tiles.rows=" << cfg.tiles.rows);
    const auto p = program(cfg, 8.0);
    if (run_sequence(p, cfg.run_seed, 40)) ++incremental_configs;
    if (::testing::Test::HasFailure()) return;
  }
  // The schedule must actually exercise the incremental path.
  EXPECT_GT(incremental_configs, kSequenceConfigs * 9 / 10);
}

/// Bytes an incremental array stores beyond the sweep metadata: one mirror
/// offset per entry.
std::size_t incremental_extra_bytes(const crossbar::ProgrammedArray& array) {
  return array.num_programmed_entries() * sizeof(std::uint16_t);
}

DifferentialConfig gate_config(std::size_t n, crossbar::TileShape tiles,
                               double vth_sigma) {
  DifferentialConfig cfg;
  cfg.n = n;
  cfg.bits = 8;
  cfg.weights = problems::WeightScheme::kUnit;
  cfg.tiles = tiles;
  cfg.variation = {vth_sigma, 0.02, 0.0, 0.0};
  cfg.adc_noise_lsb = 0.5;
  cfg.graph_seed = 21;
  cfg.array_seed = 22;
  cfg.run_seed = 23;
  return cfg;
}

TEST(SweepDifferential, ArrayFailingTheExactnessProofKeepsTheSweep) {
  const auto exact = program(gate_config(120, {}, 0.03), 10.0);
  const auto wide = program(gate_config(120, {}, 0.08), 10.0);
  ASSERT_TRUE(exact.array->supports_incremental_readout());
  ASSERT_FALSE(wide.array->supports_incremental_readout());
  EXPECT_TRUE(wide.array->mirror_offsets().empty());
  // Same couplings, mapping and tiles: the two arrays differ exactly by
  // the incremental extras, which approx_bytes() counts.
  EXPECT_EQ(exact.array->approx_bytes(),
            wide.array->approx_bytes() + incremental_extra_bytes(*exact.array));

  crossbar::AnalogCrossbarEngine engine(wide.array, wide.config.analog);
  engine.enable_incremental_readout();
  EXPECT_FALSE(engine.incremental_readout());
  EXPECT_FALSE(run_sequence(wide, 23, 40));
}

TEST(SweepDifferential, ArrayAboveTheSizeRuleKeepsTheSweep) {
  // Short tiles split every column across many bands, so a small graph
  // already exceeds kIncrementalMaxSlots conversion slots.
  const crossbar::TileShape tiles{12, 0};
  const auto large = program(gate_config(400, tiles, 0.03), 12.0);
  const auto wide = program(gate_config(400, tiles, 0.08), 12.0);
  ASSERT_GT(large.array->num_slots(),
            crossbar::ProgrammedArray::kIncrementalMaxSlots);
  EXPECT_FALSE(large.array->supports_incremental_readout());
  EXPECT_FALSE(wide.array->supports_incremental_readout());
  // Both build no extras, so their footprints match.
  EXPECT_EQ(large.array->approx_bytes(), wide.array->approx_bytes());

  crossbar::AnalogCrossbarEngine engine(large.array, large.config.analog);
  engine.enable_incremental_readout();
  EXPECT_FALSE(engine.incremental_readout());
  EXPECT_FALSE(run_sequence(large, 23, 30));
  EXPECT_TRUE(engine.incremental_state().empty());
}

// ---------------------------------------------------------------------------
// Batched full-field read vs the per-column loop.
// ---------------------------------------------------------------------------

void expect_same_ledger(const crossbar::CostLedger& a,
                        const crossbar::CostLedger& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.mux_slot_cycles, b.mux_slot_cycles);
  EXPECT_EQ(a.row_drives, b.row_drives);
  EXPECT_EQ(a.column_drives, b.column_drives);
  EXPECT_EQ(a.bg_dac_updates, b.bg_dac_updates);
  EXPECT_EQ(a.exp_evaluations, b.exp_evaluations);
  EXPECT_EQ(a.spin_updates, b.spin_updates);
  EXPECT_EQ(a.crossbar_passes, b.crossbar_passes);
  EXPECT_EQ(a.tile_activations, b.tile_activations);
  EXPECT_EQ(a.partial_sum_updates, b.partial_sum_updates);
}

/// Reads every flippable column `rounds` times, as simulated bifurcation
/// does, through the analog override on the sweep, the override on bank
/// sums and the base loop (on the sweep), reporting a random drive-change
/// set to all three between rounds.  Returns whether the bank-sum engine
/// read its state.
bool run_column_reads(const Programmed& p, std::uint64_t run_seed,
                      int rounds) {
  const auto& array = p.array;
  crossbar::AnalogCrossbarEngine sweep(array, p.config.analog);
  crossbar::AnalogCrossbarEngine banks(array, p.config.analog);
  crossbar::AnalogCrossbarEngine loop(array, p.config.analog);
  banks.enable_incremental_readout();
  for (auto* engine : {&sweep, &banks, &loop}) engine->begin_run(run_seed);

  util::Rng rng(run_seed ^ 0xc01ULL);
  const std::size_t flippable = p.model->num_flippable();
  auto drive = ising::random_spins(p.model->num_spins(), rng);
  if (p.model->has_ancilla()) drive.back() = 1;
  std::vector<double> from_sweep(flippable), from_banks(flippable),
      from_loop(flippable);
  crossbar::CostLedger sweep_ledger, banks_ledger, loop_ledger;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const crossbar::AnnealSignal signal{
        rng.uniform01(), rng.uniform(0.3, array->device_params().vbg_max)};
    sweep.evaluate_columns(drive, signal, from_sweep, sweep_ledger);
    banks.evaluate_columns(drive, signal, from_banks, banks_ledger);
    loop.crossbar::EincEngine::evaluate_columns(drive, signal, from_loop,
                                                loop_ledger);
    for (std::size_t j = 0; j < flippable; ++j) {
      // Bit identity, signed zeros included.
      const auto want = std::bit_cast<std::uint64_t>(from_loop[j]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_sweep[j]), want)
          << "column " << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_banks[j]), want)
          << "column " << j;
      if (::testing::Test::HasFailure()) return false;
    }
    expect_same_ledger(sweep_ledger, loop_ledger);
    expect_same_ledger(banks_ledger, loop_ledger);
    EXPECT_EQ(sweep.readout_noise().next_conversion,
              loop.readout_noise().next_conversion);
    EXPECT_EQ(banks.readout_noise().next_conversion,
              loop.readout_noise().next_conversion);
    if (::testing::Test::HasFailure()) return false;

    const auto changes = ising::random_flip_set(
        flippable, 1 + rng.uniform_index(std::max<std::size_t>(1, flippable / 4)),
        rng);
    ising::flip_in_place(drive, changes);
    for (auto* engine : {&sweep, &banks, &loop})
      engine->on_flips_applied(drive, changes);
  }
  return !banks.incremental_state().empty();
}

TEST(SweepDifferential, BatchedColumnReadMatchesThePerColumnLoop) {
  std::size_t banked = 0;
  for (std::uint64_t index = 0; index < kNumConfigs; ++index) {
    auto cfg = make_config(index);
    // V_TH spreads the exactness proof can cover, so most configurations
    // also exercise the bank sums.
    cfg.variation.vth_sigma = std::min(cfg.variation.vth_sigma, 0.04);
    const bool ancilla = index % 4 == 3;
    SCOPED_TRACE(::testing::Message()
                 << "config " << index << " n=" << cfg.n << " bits="
                 << cfg.bits << " tiles.rows=" << cfg.tiles.rows
                 << (ancilla ? " ancilla" : ""));
    const auto p = program(cfg, 6.0, ancilla);
    if (run_column_reads(p, cfg.run_seed, 3)) ++banked;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(banked, kNumConfigs * 9 / 10);
}

// ---------------------------------------------------------------------------
// The draw window across calls and runs.
// ---------------------------------------------------------------------------

/// True when conversions [before, after) cross a multiple of the engine's
/// draw window, so the call took draws from two window fills.
bool straddles_window(std::uint64_t before, std::uint64_t after) {
  constexpr auto kWindow = crossbar::AnalogCrossbarEngine::kDrawWindow;
  return after > before && before / kWindow != (after - 1) / kWindow;
}

/// Drives one engine on a noisy two-plane array with `tiles`, on the bank
/// sums, through interleaved reads, applied sets and run restarts.  A
/// full-field read and a wide flip set each need more than one window of
/// draws.
void check_draw_window(crossbar::TileShape tiles) {
  DifferentialConfig cfg = gate_config(96, tiles, 0.03);
  cfg.weights = problems::WeightScheme::kPlusMinusOne;
  const auto p = program(cfg, 8.0);
  const auto& array = p.array;
  ASSERT_TRUE(array->supports_incremental_readout());
  const std::size_t n = p.model->num_spins();
  const double i_on_max = array->on_current(array->device_params().vbg_max);

  // One engine lives through every call and run; a fresh one starts at each
  // run and takes the run's calls too; the reference sees every readout.
  crossbar::AnalogCrossbarEngine engine(array, p.config.analog);
  engine.enable_incremental_readout();
  util::Rng rng(0xd4a3ULL);
  auto spins = ising::random_spins(n, rng);
  std::size_t straddling_reads = 0, straddling_column_reads = 0,
              wide_reads = 0, mid_window_restarts = 0,
              first_window_restarts = 0;
  std::vector<double> from_engine(n), from_fresh(n);
  for (std::uint64_t run = 0; run < 4; ++run) {
    const std::uint64_t seed = 0x5eed0ULL + run;
    const std::uint64_t cursor = engine.readout_noise().next_conversion;
    if (cursor % crossbar::AnalogCrossbarEngine::kDrawWindow != 0)
      ++mid_window_restarts;
    // A restart inside the run's first window finds the cursor, reset to 0,
    // still inside the previous run's window: only the drop keeps the next
    // run off the previous run's draws.
    if (run > 0 && cursor < crossbar::AnalogCrossbarEngine::kDrawWindow)
      ++first_window_restarts;
    engine.begin_run(seed);
    crossbar::AnalogCrossbarEngine fresh(array, p.config.analog);
    fresh.enable_incremental_readout();
    fresh.begin_run(seed);
    auto noise_ref = crossbar::ReadoutNoise::for_run(seed);
    // The first run is one short evaluation, inside one window.
    const int steps = run == 0 ? 1 : 60;
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(::testing::Message() << "run " << run << " step " << step);
      const crossbar::AnnealSignal signal{
          rng.uniform01(), rng.uniform(0.3, array->device_params().vbg_max)};
      const std::uint64_t before = engine.readout_noise().next_conversion;
      const auto op = run == 0 ? 0 : rng.uniform_index(8);
      if (op < 4 || op == 7) {
        // A short flip set, or (op 7) one wide enough to need more than a
        // window of draws on its own.
        ising::FlipSet flips = propose(*p.model, rng);
        std::size_t draws = 0;
        for (const auto f : flips)
          draws += 2 * array->column_total_present_segments(f);
        while (op == 7 &&
               draws <= crossbar::AnalogCrossbarEngine::kDrawWindow) {
          const auto next = static_cast<std::uint32_t>(rng.uniform_index(n));
          if (std::find(flips.begin(), flips.end(), next) != flips.end())
            continue;
          flips.push_back(next);
          draws += 2 * array->column_total_present_segments(next);
        }
        const auto a = engine.evaluate(spins, flips, signal);
        const auto b = fresh.evaluate(spins, flips, signal);
        const auto r = crossbar::reference::analog_evaluate(
            *array, engine.adc(), engine.band_attenuations(), i_on_max, spins,
            flips, signal, noise_ref);
        for (const auto* other : {&b, &r}) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.e_inc),
                    std::bit_cast<std::uint64_t>(other->e_inc));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.raw_vmv),
                    std::bit_cast<std::uint64_t>(other->raw_vmv));
          EXPECT_EQ(a.trace.adc_conversions, other->trace.adc_conversions);
          EXPECT_EQ(a.trace.partial_sum_updates,
                    other->trace.partial_sum_updates);
          EXPECT_EQ(a.trace.tile_activations, other->trace.tile_activations);
          EXPECT_EQ(a.trace.mux_slot_cycles, other->trace.mux_slot_cycles);
        }
        if (draws > crossbar::AnalogCrossbarEngine::kDrawWindow) ++wide_reads;
        if (straddles_window(before, engine.readout_noise().next_conversion))
          ++straddling_reads;
      } else if (op < 6) {
        // A full-field read, one reference readout per column.
        crossbar::CostLedger engine_ledger, fresh_ledger, reference_ledger;
        engine.evaluate_columns(spins, signal, from_engine, engine_ledger);
        fresh.evaluate_columns(spins, signal, from_fresh, fresh_ledger);
        ising::FlipSet probe(1, 0);
        for (std::size_t j = 0; j < n; ++j) {
          probe[0] = static_cast<std::uint32_t>(j);
          const auto r = crossbar::reference::analog_evaluate(
              *array, engine.adc(), engine.band_attenuations(), i_on_max,
              spins, probe, signal, noise_ref);
          crossbar::merge_trace(reference_ledger, r.trace);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(from_engine[j]),
                    std::bit_cast<std::uint64_t>(r.raw_vmv))
              << "column " << j;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(from_fresh[j]),
                    std::bit_cast<std::uint64_t>(r.raw_vmv))
              << "column " << j;
        }
        expect_same_ledger(engine_ledger, reference_ledger);
        expect_same_ledger(fresh_ledger, reference_ledger);
        if (straddles_window(before, engine.readout_noise().next_conversion))
          ++straddling_column_reads;
      } else {
        // An applied flip set moves both engines' bank sums alike.
        const auto flips = propose(*p.model, rng);
        ising::flip_in_place(spins, flips);
        engine.on_flips_applied(spins, flips);
        fresh.on_flips_applied(spins, flips);
        const auto live = engine.incremental_state();
        const auto rebuilt = fresh.incremental_state();
        EXPECT_TRUE(std::equal(live.begin(), live.end(), rebuilt.begin(),
                               rebuilt.end()));
      }
      EXPECT_EQ(engine.readout_noise().next_conversion,
                noise_ref.next_conversion);
      EXPECT_EQ(fresh.readout_noise().next_conversion,
                noise_ref.next_conversion);
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The schedule must cross window boundaries inside both kinds of read,
  // need more than a window in one read, and restart runs mid-window, once
  // inside the first window.
  EXPECT_GT(straddling_reads, 0u);
  EXPECT_GT(straddling_column_reads, 0u);
  EXPECT_GT(wide_reads, 0u);
  EXPECT_GT(mid_window_restarts, 1u);
  EXPECT_EQ(first_window_restarts, 1u);
}

TEST(SweepDifferential, DrawWindowIsInvisibleAcrossCallsAndRuns) {
  // One band keeps a read's lanes in cursor order, so it converts against
  // its draws in place in the window; short tiles group the lanes by band
  // and copy the draws beside them.
  for (const auto tiles : {crossbar::TileShape{}, crossbar::TileShape{6, 0}}) {
    SCOPED_TRACE(::testing::Message() << "tile rows " << tiles.rows);
    check_draw_window(tiles);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
