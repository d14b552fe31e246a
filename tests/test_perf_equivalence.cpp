// Hot-path equivalence suite: the optimized kernels (bit-plane column cache,
// persistent flip bitmaps, local-field caches, pooled parallel_for,
// zero-allocation annealer loops) must be bit-identical to the reference
// implementations preserved in crossbar/reference_kernels.hpp, and the
// annealer inner loops must perform zero heap allocations after their
// per-run setup.
//
// Golden history: until PR 2 both sides consumed one sequential Box-Muller
// RNG, so *draw order* was part of the pinned contract.  PR 2 replaced that
// with counter-keyed noise streams (util::NoiseStream + ReadoutNoise): noise
// is now keyed by (run_seed, site, conversion index), the engines share a
// conversion-counting cursor instead of an RNG, and the noisy goldens were
// deliberately re-pinned under the new contract (docs/noise-model.md).  The
// equivalence checked here is unchanged in spirit: identical results,
// identical cursor positions, zero hidden coupling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/acceptance.hpp"
#include "core/annealer_factory.hpp"
#include "core/bifurcation_annealer.hpp"
#include "core/direct_annealer.hpp"
#include "core/insitu_annealer.hpp"
#include "core/run_driver.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/ideal_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "ising/local_field.hpp"
#include "problems/generators.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "util/parallel.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: global operator new/delete replacements so tests can
// assert that a code region performs no heap allocation.  Counted with an
// atomic; the zero-allocation tests below run the measured region on a
// single thread.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// their blocks reach the replaced operator delete, so they must come from
// malloc as well.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace fecim;

ising::IsingModel make_model(std::size_t n, problems::WeightScheme weights,
                             std::uint64_t seed) {
  return problems::maxcut_to_ising(
      problems::random_graph(n, 6.0, weights, seed));
}

// ---------------------------------------------------------------------------
// Analog engine: cached evaluation vs per-cell reference, bit-identical
// e_inc / raw_vmv / ADC conversion counts under the shared counter-keyed
// noise streams, with the conversion cursors in lockstep.
// ---------------------------------------------------------------------------

void expect_analog_equivalence(const ising::IsingModel& model, int bits,
                               const device::VariationParams& variation,
                               std::uint64_t seed,
                               double adc_noise_lsb = 0.5) {
  core::InSituConfig config;  // only mapping/device/analog fields are used
  config.mapping.bits = bits;
  config.analog.adc.noise_lsb_rms = adc_noise_lsb;

  const crossbar::QuantizedCouplings quantized(model.couplings(), bits);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device, variation, seed);

  crossbar::AnalogCrossbarEngine engine(array, config.analog);
  const double i_on_max =
      array->on_current(array->device_params().vbg_max);

  util::Rng selector(seed ^ 0xf11b5);
  engine.begin_run(seed + 1);
  auto noise_ref = crossbar::ReadoutNoise::for_run(seed + 1);

  const double vbg_max = array->device_params().vbg_max;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t t = 1 + selector.uniform_index(4);
    const auto flips = ising::random_flip_set(model.num_spins(), t, selector);
    auto spins = ising::random_spins(model.num_spins(), selector);
    const crossbar::AnnealSignal signal{
        selector.uniform01(), selector.uniform(0.3, vbg_max)};

    const auto optimized = engine.evaluate(spins, flips, signal);
    const auto reference = crossbar::reference::analog_evaluate(
        *array, engine.adc(), engine.band_attenuations(), i_on_max, spins,
        flips, signal, noise_ref);

    ASSERT_EQ(optimized.e_inc, reference.e_inc);
    ASSERT_EQ(optimized.raw_vmv, reference.raw_vmv);
    ASSERT_EQ(optimized.trace.adc_conversions, reference.trace.adc_conversions);
    ASSERT_EQ(optimized.trace.mux_slot_cycles, reference.trace.mux_slot_cycles);
    ASSERT_EQ(optimized.trace.row_drives, reference.trace.row_drives);
    ASSERT_EQ(optimized.trace.column_drives, reference.trace.column_drives);
    // Both sides assigned the same indices to the same conversions.
    ASSERT_EQ(engine.readout_noise().next_conversion,
              noise_ref.next_conversion);
  }
}

TEST(AnalogEngineEquivalence, IdealCellsAcrossBitWidths) {
  for (const int bits : {2, 4, 8}) {
    const auto model = make_model(48, problems::WeightScheme::kPlusMinusOne,
                                  100 + static_cast<std::uint64_t>(bits));
    expect_analog_equivalence(model, bits, {}, 7);
  }
}

TEST(AnalogEngineEquivalence, VariationAndNoiseAcrossBitWidths) {
  device::VariationParams variation;
  variation.vth_sigma = 0.04;
  variation.read_noise_rel = 0.02;
  variation.stuck_off_rate = 0.01;
  variation.stuck_on_rate = 0.005;
  for (const int bits : {2, 4, 8}) {
    const auto model = make_model(48, problems::WeightScheme::kPlusMinusOne,
                                  200 + static_cast<std::uint64_t>(bits));
    expect_analog_equivalence(model, bits, variation, 11);
  }
}

TEST(AnalogEngineEquivalence, DeterministicReadoutMatchesReference) {
  // No read noise and no ADC noise: the sweep converts every segment at
  // sigma = 0.  Cover both ideal cells (every multiplier 1) and Vth spread
  // with stuck cells (distinct multipliers per bit).
  for (const int bits : {2, 4, 8}) {
    const auto model = make_model(48, problems::WeightScheme::kPlusMinusOne,
                                  400 + static_cast<std::uint64_t>(bits));
    expect_analog_equivalence(model, bits, {}, 19, 0.0);
    device::VariationParams spread;
    spread.vth_sigma = 0.05;
    spread.stuck_off_rate = 0.01;
    expect_analog_equivalence(model, bits, spread, 23, 0.0);
  }
}

TEST(AnalogEngineEquivalence, UnitWeightsMatchReference) {
  // Unit-weight Max-Cut quantizes to full-scale magnitudes with identical
  // bit patterns (single weight plane), under ADC noise alone and with read
  // noise.
  const auto model = make_model(48, problems::WeightScheme::kUnit, 300);
  expect_analog_equivalence(model, 4, {}, 13);
  device::VariationParams noise_only;
  noise_only.read_noise_rel = 0.03;
  expect_analog_equivalence(model, 4, noise_only, 17);
}

TEST(AnalogEngineEquivalence, KeyedNoiseReplaysOutOfOrder) {
  // The point of the counter-keyed streams: a noisy evaluation is a pure
  // function of (run_seed, cursor position, inputs).  Run a sequence of
  // evaluations forward, then replay them in reverse order with the cursor
  // positioned by index -- every result must reproduce bit-identically,
  // which is impossible under a sequential draw-order contract.
  const auto model = make_model(48, problems::WeightScheme::kPlusMinusOne, 500);
  device::VariationParams variation;
  variation.vth_sigma = 0.04;
  variation.read_noise_rel = 0.02;
  core::InSituConfig config;
  config.mapping.bits = 8;

  const crossbar::QuantizedCouplings quantized(model.couplings(), 8);
  const crossbar::CrossbarMapping mapping(
      model.num_spins(), quantized.has_negative() ? 2 : 1, config.mapping);
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      quantized, mapping, config.device, variation, 31);
  const crossbar::AnalogCrossbarEngine probe(array, config.analog);
  const double i_on_max = array->on_current(array->device_params().vbg_max);

  util::Rng selector(91);
  constexpr int kCalls = 12;
  std::vector<ising::FlipSet> flip_sets;
  std::vector<ising::SpinVector> spin_sets;
  std::vector<crossbar::AnnealSignal> signals;
  for (int k = 0; k < kCalls; ++k) {
    flip_sets.push_back(ising::random_flip_set(
        model.num_spins(), 1 + selector.uniform_index(3), selector));
    spin_sets.push_back(ising::random_spins(model.num_spins(), selector));
    signals.push_back({selector.uniform01(), selector.uniform(0.3, 0.7)});
  }

  auto forward = crossbar::ReadoutNoise::for_run(77);
  std::vector<std::uint64_t> cursor_at(kCalls);
  std::vector<double> e_forward(kCalls);
  for (int k = 0; k < kCalls; ++k) {
    cursor_at[k] = forward.next_conversion;
    e_forward[k] = crossbar::reference::analog_evaluate(
                       *array, probe.adc(), probe.band_attenuations(), i_on_max,
                       spin_sets[k], flip_sets[k], signals[k], forward)
                       .e_inc;
  }
  for (int k = kCalls - 1; k >= 0; --k) {
    auto replay = crossbar::ReadoutNoise::for_run(77);
    replay.next_conversion = cursor_at[k];
    const double e_replay = crossbar::reference::analog_evaluate(
                                *array, probe.adc(), probe.band_attenuations(),
                                i_on_max, spin_sets[k], flip_sets[k],
                                signals[k], replay)
                                .e_inc;
    ASSERT_EQ(e_replay, e_forward[k]) << "call " << k;
  }
}

// ---------------------------------------------------------------------------
// Incremental VMV: persistent-bitmap implementation vs seed reference.
// ---------------------------------------------------------------------------

TEST(IncrementalVmvEquivalence, MatchesReferenceAcrossFlipCounts) {
  const auto model = make_model(64, problems::WeightScheme::kPlusMinusOne, 5);
  util::Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t t = 1 + rng.uniform_index(24);
    const auto flips = ising::random_flip_set(model.num_spins(), t, rng);
    const auto spins = ising::random_spins(model.num_spins(), rng);
    ASSERT_EQ(model.incremental_vmv(spins, flips),
              crossbar::reference::incremental_vmv(model, spins, flips));
  }
}

TEST(IncrementalVmvEquivalence, DuplicateRejectionLeavesBitmapClean) {
  const auto model = make_model(32, problems::WeightScheme::kUnit, 6);
  util::Rng rng(29);
  const auto spins = ising::random_spins(model.num_spins(), rng);
  const ising::FlipSet duplicate{3, 7, 3};
  EXPECT_THROW(model.incremental_vmv(spins, duplicate), fecim::contract_error);
  const ising::FlipSet out_of_range{1, 99};
  EXPECT_THROW(model.incremental_vmv(spins, out_of_range),
               fecim::contract_error);
  // The persistent thread-local bitmap must have been unwound: a valid call
  // involving the previously-marked indices still matches the reference.
  const ising::FlipSet valid{1, 3, 7};
  EXPECT_EQ(model.incremental_vmv(spins, valid),
            crossbar::reference::incremental_vmv(model, spins, valid));
}

// ---------------------------------------------------------------------------
// Local-field cache: h-based VMV vs row walk, and incremental maintenance
// vs rebuild.  Unit-weight couplings are dyadic, so every association of
// the same exact sums is bit-identical.
// ---------------------------------------------------------------------------

TEST(LocalFieldCache, VmvMatchesRowWalkOnDyadicWeights) {
  const auto model = make_model(64, problems::WeightScheme::kUnit, 8);
  util::Rng rng(31);
  auto spins = ising::random_spins(model.num_spins(), rng);
  ising::LocalFieldCache cache;
  cache.build(model, spins);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t t = 1 + rng.uniform_index(6);
    const auto flips = ising::random_flip_set(model.num_spins(), t, rng);
    ASSERT_EQ(cache.vmv(model, spins, flips),
              model.incremental_vmv(spins, flips));
  }
}

TEST(LocalFieldCache, ApplyFlipsMatchesRebuild) {
  const auto model =
      make_model(64, problems::WeightScheme::kPlusMinusOne, 9);
  util::Rng rng(37);
  auto spins = ising::random_spins(model.num_spins(), rng);
  ising::LocalFieldCache incremental;
  incremental.build(model, spins);
  for (int step = 0; step < 50; ++step) {
    auto flips = ising::random_flip_set(model.num_spins(),
                                        1 + rng.uniform_index(4), rng);
    ising::flip_in_place(spins, flips);
    incremental.apply_flips(model, spins, flips);
  }
  ising::LocalFieldCache rebuilt;
  rebuilt.build(model, spins);
  const auto a = incremental.fields();
  const auto b = rebuilt.fields();
  ASSERT_EQ(a.size(), b.size());
  // +-1 weights keep every field an exact small integer, so incremental
  // +=/-= updates cannot drift from the rebuilt sums.
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(LocalFieldCache, LargeFlipSetsFallBackToRowWalk) {
  const auto model = make_model(48, problems::WeightScheme::kUnit, 10);
  util::Rng rng(41);
  const auto spins = ising::random_spins(model.num_spins(), rng);
  ising::LocalFieldCache cache;
  cache.build(model, spins);
  const auto flips = ising::random_flip_set(model.num_spins(), 20, rng);
  EXPECT_EQ(cache.vmv(model, spins, flips),
            model.incremental_vmv(spins, flips));
}

// ---------------------------------------------------------------------------
// Full-run fixed-seed equivalence: the production annealers vs faithful
// re-implementations of the seed loops (reference kernels, per-iteration
// allocations, row-walk energy bookkeeping).  Unit weights keep all
// arithmetic dyadic, so equality is exact.
// ---------------------------------------------------------------------------

core::ProblemInstance unit_instance(std::size_t n, std::uint64_t seed) {
  return problems::make_maxcut_problem(
      "equiv", problems::random_graph(n, 6.0, problems::WeightScheme::kUnit,
                                      seed),
      16, seed);
}

void expect_run_equal(const core::AnnealResult& a, const core::AnnealResult& b) {
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.final_energy, b.final_energy);
  EXPECT_EQ(a.best_spins, b.best_spins);
  EXPECT_EQ(a.final_spins, b.final_spins);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  EXPECT_EQ(a.uphill_accepted, b.uphill_accepted);
  EXPECT_EQ(a.ledger.iterations, b.ledger.iterations);
  EXPECT_EQ(a.ledger.adc_conversions, b.ledger.adc_conversions);
  EXPECT_EQ(a.ledger.mux_slot_cycles, b.ledger.mux_slot_cycles);
  EXPECT_EQ(a.ledger.row_drives, b.ledger.row_drives);
  EXPECT_EQ(a.ledger.column_drives, b.ledger.column_drives);
  EXPECT_EQ(a.ledger.bg_dac_updates, b.ledger.bg_dac_updates);
  EXPECT_EQ(a.ledger.spin_updates, b.ledger.spin_updates);
  EXPECT_EQ(a.ledger.crossbar_passes, b.ledger.crossbar_passes);
  EXPECT_EQ(a.ledger.exp_evaluations, b.ledger.exp_evaluations);
  EXPECT_EQ(a.ledger.tile_activations, b.ledger.tile_activations);
  EXPECT_EQ(a.ledger.partial_sum_updates, b.ledger.partial_sum_updates);
  EXPECT_EQ(a.trajectory.size(), b.trajectory.size());
  EXPECT_EQ(a.ledger_trajectory.size(), b.ledger_trajectory.size());
}

/// The seed in-situ loop for the analog engine: reference analog evaluation,
/// freshly-allocated flip sets, delta_energy row walks.  Readout noise comes
/// from the same counter-keyed streams the production engine binds in
/// begin_run(seed).
core::AnnealResult seed_insitu_analog_run(const core::InSituCimAnnealer& annealer,
                                          const core::InSituConfig& config,
                                          const ising::IsingModel& model,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  auto noise = crossbar::ReadoutNoise::for_run(seed);
  const std::size_t n = model.num_spins();
  const auto array = annealer.array();
  // Probe engine for the shared calibration (construction draws no RNG).
  crossbar::AnalogCrossbarEngine probe(array, config.analog);
  const double i_on_max = array->on_current(array->device_params().vbg_max);

  core::AnnealResult result;
  auto spins = ising::random_spins(n, rng);
  double energy = model.energy(spins);
  result.best_spins = spins;
  result.best_energy = energy;

  const core::FractionalAcceptance acceptance;
  double previous_vbg = -1.0;

  for (std::size_t it = 0; it < config.iterations; ++it) {
    const auto point = annealer.schedule().at(it);
    if (point.vbg != previous_vbg) {
      ++result.ledger.bg_dac_updates;
      previous_vbg = point.vbg;
    }
    const auto flips = ising::random_flip_set(
        model.num_flippable(), config.flips_per_iteration, rng);
    const auto evaluation = crossbar::reference::analog_evaluate(
        *array, probe.adc(), probe.band_attenuations(), i_on_max, spins, flips,
        {point.factor, point.vbg}, noise);
    crossbar::merge_trace(result.ledger, evaluation.trace);
    ++result.ledger.iterations;
    if (acceptance.accept(config.acceptance_gain * evaluation.e_inc, rng)) {
      energy += model.delta_energy(spins, flips);
      ising::flip_in_place(spins, flips);
      result.ledger.spin_updates += flips.size();
      ++result.accepted_moves;
      if (evaluation.e_inc > 0.0) ++result.uphill_accepted;
      if (energy < result.best_energy) {
        result.best_energy = energy;
        result.best_spins = spins;
      }
    }
  }
  result.final_spins = std::move(spins);
  result.final_energy = energy;
  return result;
}

TEST(FullRunEquivalence, InSituAnalogMatchesSeedLoop) {
  const auto instance = unit_instance(48, 77);
  core::InSituConfig config;
  config.iterations = 400;
  config.flips_per_iteration = 2;
  config.flip_selection = core::InSituConfig::FlipSelection::kRandom;
  config.variation.vth_sigma = 0.03;
  config.variation.read_noise_rel = 0.02;
  const core::InSituCimAnnealer annealer(instance.model, config);
  for (const std::uint64_t seed : {1ULL, 9ULL, 1234567ULL}) {
    const auto optimized = annealer.run(seed);
    const auto reference =
        seed_insitu_analog_run(annealer, config, *instance.model, seed);
    expect_run_equal(optimized, reference);
  }
}

/// The seed cluster selection: O(t^2) linear duplicate scans and unbounded
/// uniform re-draws.  Identical RNG draw order to the optimized version for
/// the sparse flip sets this test uses.
ising::FlipSet seed_cluster_flip_set(const ising::IsingModel& model,
                                     const core::InSituConfig& config,
                                     util::Rng& rng) {
  const std::size_t flippable = model.num_flippable();
  double parity_mix = config.parity_mix;
  if (parity_mix < 0.0) parity_mix = model.has_ancilla() ? 0.25 : 0.0;
  std::size_t t = config.flips_per_iteration;
  if (t > 1 && parity_mix > 0.0 && rng.bernoulli(parity_mix)) --t;
  ising::FlipSet flips;
  flips.push_back(static_cast<std::uint32_t>(rng.uniform_index(flippable)));
  const auto& j = model.couplings();
  while (flips.size() < t) {
    const auto current = flips.back();
    const auto neighbors = j.row_cols(current);
    std::uint32_t next = 0;
    bool found = false;
    if (rng.bernoulli(config.cluster_neighbor_bias)) {
      for (int attempt = 0; attempt < 8 && !neighbors.empty(); ++attempt) {
        const auto candidate = neighbors[rng.uniform_index(neighbors.size())];
        if (candidate >= flippable) continue;
        bool duplicate = false;
        for (const auto f : flips) duplicate |= (f == candidate);
        if (!duplicate) {
          next = candidate;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      do {
        next = static_cast<std::uint32_t>(rng.uniform_index(flippable));
        bool duplicate = false;
        for (const auto f : flips) duplicate |= (f == next);
        if (!duplicate) break;
      } while (true);
    }
    flips.push_back(next);
  }
  return flips;
}

/// The seed in-situ loop for the ideal engine: a cache-less engine instance
/// (stateless CSR row walks) plus delta_energy bookkeeping.
core::AnnealResult seed_insitu_ideal_run(const core::InSituCimAnnealer& annealer,
                                         const core::InSituConfig& config,
                                         const ising::IsingModel& model,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = model.num_spins();
  crossbar::IdealCrossbarEngine engine(model, annealer.mapping(),
                                       crossbar::Accounting::kInSitu);
  core::AnnealResult result;
  auto spins = ising::random_spins(n, rng);
  double energy = model.energy(spins);
  result.best_spins = spins;
  result.best_energy = energy;

  const core::FractionalAcceptance acceptance;
  double previous_vbg = -1.0;
  for (std::size_t it = 0; it < config.iterations; ++it) {
    const auto point = annealer.schedule().at(it);
    if (point.vbg != previous_vbg) {
      ++result.ledger.bg_dac_updates;
      previous_vbg = point.vbg;
    }
    const auto flips = seed_cluster_flip_set(model, config, rng);
    const auto evaluation =
        engine.evaluate(spins, flips, {point.factor, point.vbg});
    crossbar::merge_trace(result.ledger, evaluation.trace);
    ++result.ledger.iterations;
    if (acceptance.accept(config.acceptance_gain * evaluation.e_inc, rng)) {
      energy += model.delta_energy(spins, flips);
      ising::flip_in_place(spins, flips);
      result.ledger.spin_updates += flips.size();
      ++result.accepted_moves;
      if (evaluation.e_inc > 0.0) ++result.uphill_accepted;
      if (energy < result.best_energy) {
        result.best_energy = energy;
        result.best_spins = spins;
      }
    }
  }
  result.final_spins = std::move(spins);
  result.final_energy = energy;
  return result;
}

TEST(FullRunEquivalence, InSituIdealClusterMatchesSeedLoop) {
  const auto instance = unit_instance(48, 78);
  core::InSituConfig config;
  config.iterations = 400;
  config.flips_per_iteration = 3;
  config.flip_selection = core::InSituConfig::FlipSelection::kCluster;
  config.engine = core::InSituConfig::EngineKind::kIdeal;
  const core::InSituCimAnnealer annealer(instance.model, config);
  for (const std::uint64_t seed : {2ULL, 10ULL, 7654321ULL}) {
    const auto optimized = annealer.run(seed);
    const auto reference =
        seed_insitu_ideal_run(annealer, config, *instance.model, seed);
    expect_run_equal(optimized, reference);
  }
}

/// The seed direct-E loop: cache-less engine, freshly-allocated flip sets.
core::AnnealResult seed_direct_run(const core::DirectEAnnealer& annealer,
                                   const core::DirectEConfig& config,
                                   const ising::IsingModel& model,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = model.num_spins();
  const crossbar::QuantizedCouplings quantized(model.couplings(),
                                               config.mapping.bits);
  const crossbar::CrossbarMapping mapping(
      n, quantized.has_negative() ? 2 : 1, config.mapping);
  crossbar::IdealCrossbarEngine engine(model, mapping,
                                       crossbar::Accounting::kDirectFullArray);
  const double t_start = annealer.calibrated_t_start();
  const core::ClassicSchedule schedule(
      {t_start, t_start * config.t_end_fraction, config.iterations,
       config.schedule_kind, config.decay_per_iteration});

  core::AnnealResult result;
  auto spins = ising::random_spins(n, rng);
  double energy = model.energy(spins);
  result.best_spins = spins;
  result.best_energy = energy;

  const core::MetropolisAcceptance acceptance;
  for (std::size_t it = 0; it < config.iterations; ++it) {
    const double temperature = schedule.temperature(it);
    const auto flips = ising::random_flip_set(
        model.num_flippable(), config.flips_per_iteration, rng);
    const auto evaluation = engine.evaluate(spins, flips, {1.0, 0.0});
    crossbar::merge_trace(result.ledger, evaluation.trace);
    ++result.ledger.iterations;
    double delta_e = 4.0 * evaluation.raw_vmv;
    for (const auto i : flips)
      delta_e += -2.0 * model.fields()[i] * static_cast<double>(spins[i]);
    const auto decision = acceptance.accept(delta_e, temperature, rng);
    if (config.pipelined_exp_unit || decision.exp_evaluated)
      ++result.ledger.exp_evaluations;
    if (decision.accepted) {
      energy += delta_e;
      ising::flip_in_place(spins, flips);
      result.ledger.spin_updates += flips.size();
      ++result.accepted_moves;
      if (delta_e > 0.0) ++result.uphill_accepted;
      if (energy < result.best_energy) {
        result.best_energy = energy;
        result.best_spins = spins;
      }
    }
  }
  result.final_spins = std::move(spins);
  result.final_energy = energy;
  return result;
}

TEST(FullRunEquivalence, DirectEMatchesSeedLoop) {
  const auto instance = unit_instance(48, 79);
  core::DirectEConfig config;
  config.iterations = 400;
  config.flips_per_iteration = 2;
  const core::DirectEAnnealer annealer(instance.model, config);
  for (const std::uint64_t seed : {3ULL, 11ULL, 24681357ULL}) {
    const auto optimized = annealer.run(seed);
    const auto reference =
        seed_direct_run(annealer, config, *instance.model, seed);
    expect_run_equal(optimized, reference);
  }
}

/// The seed MESA loop, as MesaAnnealer ran it before MESA became
/// DirectEAnnealer's epoch loop: cache-less engine, freshly-allocated flip
/// sets, the exp unit charged only when the test evaluates it,
/// max(1, budget / 4) iterations per epoch with the remainder on the first
/// ones, and every epoch restarting from the best configuration.  `base` is
/// MESA's configuration with one epoch; a probe annealer calibrates its
/// start temperature.
core::AnnealResult seed_mesa_run(
    const std::shared_ptr<const ising::IsingModel>& model,
    const core::DirectEConfig& base, std::uint64_t seed) {
  constexpr std::size_t kEpochs = 4;
  constexpr double kEpochTemperatureDecay = 0.5;
  const crossbar::CrossbarMapping mapping(
      model->num_spins(),
      crossbar::QuantizedCouplings(model->couplings(), base.mapping.bits)
              .has_negative()
          ? 2
          : 1,
      base.mapping);
  const core::DirectEAnnealer probe(model, base);
  const double t_start = probe.calibrated_t_start();

  const std::size_t base_per_epoch =
      std::max<std::size_t>(1, base.iterations / kEpochs);
  const std::size_t remainder =
      base.iterations > base_per_epoch * kEpochs
          ? base.iterations - base_per_epoch * kEpochs
          : 0;

  crossbar::IdealCrossbarEngine engine(*model, mapping,
                                       crossbar::Accounting::kDirectFullArray,
                                       base.tiles);
  const core::MetropolisAcceptance acceptance;

  core::RunDriver driver(*model, seed, core::CancellationToken::none(),
                         {0, core::TraceOptions{}, base.initial_spins.get()});
  auto& rng = driver.rng;
  auto& spins = driver.spins;

  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    spins = driver.result.best_spins;
    driver.energy = driver.result.best_energy;
    const std::size_t per_epoch = base_per_epoch + (epoch < remainder ? 1 : 0);
    const double epoch_t_start =
        t_start *
        std::pow(kEpochTemperatureDecay, static_cast<double>(epoch));
    const core::ClassicSchedule schedule(
        {epoch_t_start, epoch_t_start * base.t_end_fraction, per_epoch,
         base.schedule_kind});

    for (std::size_t it = 0; it < per_epoch; ++it) {
      const double temperature = schedule.temperature(it);
      const auto flips = ising::random_flip_set(
          model->num_flippable(), base.flips_per_iteration, rng);
      const auto evaluation = engine.evaluate(spins, flips, {1.0, 0.0});
      crossbar::merge_trace(driver.result.ledger, evaluation.trace);
      ++driver.result.ledger.iterations;
      double delta_e = 4.0 * evaluation.raw_vmv;
      for (const auto i : flips)
        delta_e += -2.0 * model->fields()[i] * static_cast<double>(spins[i]);

      const auto decision = acceptance.accept(delta_e, temperature, rng);
      if (decision.exp_evaluated) ++driver.result.ledger.exp_evaluations;
      if (decision.accepted) {
        driver.energy += delta_e;
        ising::flip_in_place(spins, flips);
        driver.count_accept(flips.size(), delta_e > 0.0);
        driver.track_best();
      }
    }
  }
  return driver.finish();
}

TEST(FullRunEquivalence, MesaMatchesSeedLoop) {
  // make_annealer(kMesa) against the pre-fold loop, on unit and +-1
  // weights (dyadic, so the cached and row-walk sums agree exactly), one
  // and two flips per move, an even and an uneven budget split, random
  // starts and one warm start.
  for (const auto weights :
       {problems::WeightScheme::kUnit, problems::WeightScheme::kPlusMinusOne}) {
    const auto instance = problems::make_maxcut_problem(
        "mesa", problems::random_graph(48, 6.0, weights, 83), 16, 83);
    for (const std::size_t flips : {1u, 2u}) {
      for (const std::size_t budget : {400u, 403u}) {
        core::StandardSetup setup;
        setup.iterations = budget;
        setup.baseline_flips = flips;
        core::DirectEConfig base;
        base.iterations = budget;
        base.flips_per_iteration = flips;
        base.schedule_kind = core::ClassicSchedule::Kind::kGeometric;
        const auto mesa =
            core::make_annealer(core::AnnealerKind::kMesa, instance.model,
                                setup);
        for (const std::uint64_t seed : {5ULL, 17ULL, 97531ULL}) {
          SCOPED_TRACE(::testing::Message()
                       << "weights " << static_cast<int>(weights) << " flips "
                       << flips << " budget " << budget << " seed " << seed);
          expect_run_equal(mesa->run(seed),
                           seed_mesa_run(instance.model, base, seed));
        }
        if (weights == problems::WeightScheme::kPlusMinusOne && flips == 2 &&
            budget == 403) {
          SCOPED_TRACE("warm start");
          setup.initial_spins =
              std::make_shared<const ising::SpinVector>(instance.warm_start());
          base.initial_spins = setup.initial_spins;
          const auto warm = core::make_annealer(core::AnnealerKind::kMesa,
                                                instance.model, setup);
          expect_run_equal(warm->run(5),
                           seed_mesa_run(instance.model, base, 5));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pooled parallel_for: correctness across repeated reuse, and no wasted
// body executions once a task has thrown.
// ---------------------------------------------------------------------------

TEST(PooledParallelFor, RepeatedCallsReuseThePool) {
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> counts(257);
    util::parallel_for(counts.size(), [&](std::size_t i) { ++counts[i]; }, 4);
    for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
  }
}

TEST(PooledParallelFor, SkipsRemainingBodiesAfterThrow) {
  constexpr std::size_t kCount = 1'000'000;
  std::atomic<std::uint64_t> executed{0};
  EXPECT_THROW(
      util::parallel_for(
          kCount,
          [&](std::size_t) {
            if (executed.fetch_add(1) == 0) throw std::runtime_error("boom");
          },
          2),
      std::runtime_error);
  // The seed implementation ran every remaining index's body (~kCount
  // executions); the drained pool must stop almost immediately.
  EXPECT_LT(executed.load(), kCount / 2);
}

TEST(PooledParallelFor, NestedCallsRunInline) {
  std::vector<std::atomic<int>> counts(64);
  util::parallel_for(
      8,
      [&](std::size_t outer) {
        util::parallel_for(
            8, [&](std::size_t inner) { ++counts[outer * 8 + inner]; }, 4);
      },
      4);
  for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
}

// ---------------------------------------------------------------------------
// Zero-allocation inner loops: the allocation count of a run must not grow
// with the iteration count (everything is amortized into per-run setup).
// ---------------------------------------------------------------------------

template <typename MakeAnnealer>
void expect_iteration_free_allocations(const MakeAnnealer& make) {
  const auto short_annealer = make(std::size_t{400});
  const auto long_annealer = make(std::size_t{1600});
  // Warm-up: populate thread-local scratch and lazy pools.
  (void)short_annealer->run(99);
  (void)long_annealer->run(99);

  const auto count_run = [](const core::Annealer& annealer) {
    const std::uint64_t before = g_alloc_count.load();
    (void)annealer.run(99);
    return g_alloc_count.load() - before;
  };
  const auto short_allocs = count_run(*short_annealer);
  const auto long_allocs = count_run(*long_annealer);
  // 4x the iterations, same allocation count -> zero per-iteration heap
  // traffic; every allocation belongs to per-run setup.
  EXPECT_EQ(short_allocs, long_allocs);
  EXPECT_GT(short_allocs, 0u);  // sanity: the counter is actually wired up
}

TEST(ZeroAllocationLoop, InSituAnalog) {
  const auto instance = unit_instance(64, 91);
  expect_iteration_free_allocations([&](std::size_t iterations) {
    core::InSituConfig config;
    config.iterations = iterations;
    config.flips_per_iteration = 2;
    config.variation.read_noise_rel = 0.02;
    return std::make_unique<core::InSituCimAnnealer>(instance.model, config);
  });
}

TEST(ZeroAllocationLoop, InSituAnalogIncrementalReadout) {
  // Variation, read noise and a tiled grid: the per-run incremental state
  // is built on the first evaluation and updated in place afterwards.
  const auto instance = unit_instance(64, 94);
  expect_iteration_free_allocations([&](std::size_t iterations) {
    core::InSituConfig config;
    config.iterations = iterations;
    config.flips_per_iteration = 3;
    config.variation = {0.03, 0.02, 0.0, 0.0};
    config.tiles = crossbar::TileShape{16, 0};
    auto annealer =
        std::make_unique<core::InSituCimAnnealer>(instance.model, config);
    EXPECT_TRUE(annealer->array()->supports_incremental_readout());
    return annealer;
  });
}

TEST(ZeroAllocationLoop, SbAnalogIncremental) {
  // Both variants on 16-row tiles with read noise: the drive's sign changes
  // move the per-run bank sums in place, and every step's batched field
  // read reuses the engine's draw buffer.
  const auto instance = unit_instance(64, 95);
  for (const auto variant :
       {core::SbVariant::kBallistic, core::SbVariant::kDiscrete}) {
    expect_iteration_free_allocations([&](std::size_t steps) {
      core::SbConfig config;
      config.steps = steps;
      config.variant = variant;
      config.variation = {0.03, 0.02, 0.0, 0.0};
      config.tiles = crossbar::TileShape{16, 0};
      auto annealer =
          std::make_unique<core::BifurcationAnnealer>(instance.model, config);
      EXPECT_TRUE(annealer->array()->supports_incremental_readout());
      return annealer;
    });
  }
}

TEST(ZeroAllocationLoop, InSituIdealRandomSelection) {
  const auto instance = unit_instance(64, 92);
  expect_iteration_free_allocations([&](std::size_t iterations) {
    core::InSituConfig config;
    config.iterations = iterations;
    config.flips_per_iteration = 2;
    config.flip_selection = core::InSituConfig::FlipSelection::kRandom;
    config.engine = core::InSituConfig::EngineKind::kIdeal;
    return std::make_unique<core::InSituCimAnnealer>(instance.model, config);
  });
}

TEST(ZeroAllocationLoop, DirectE) {
  const auto instance = unit_instance(64, 93);
  expect_iteration_free_allocations([&](std::size_t iterations) {
    core::DirectEConfig config;
    config.iterations = iterations;
    config.flips_per_iteration = 2;
    return std::make_unique<core::DirectEAnnealer>(instance.model, config);
  });
}

TEST(ZeroAllocationLoop, Mesa) {
  // The epoch restarts copy the best spins into the live vector and rebuild
  // the local fields in place: no allocation beyond per-run setup.
  const auto instance = unit_instance(64, 96);
  expect_iteration_free_allocations([&](std::size_t iterations) {
    core::StandardSetup setup;
    setup.iterations = iterations;
    setup.baseline_flips = 2;
    return core::make_annealer(core::AnnealerKind::kMesa, instance.model,
                               setup);
  });
}

}  // namespace
