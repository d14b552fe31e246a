// E_inc engines: the ideal engine's exactness + event traces, and the
// analog engine's agreement with the ideal value within quantization/noise
// bounds, in-situ f(T) realization, and fault behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "util/assert.hpp"
#include "circuit/drivers.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/ideal_engine.hpp"
#include "ising/fractional_factor.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace fecim;
using crossbar::Accounting;
using crossbar::AnalogCrossbarEngine;
using crossbar::AnalogEngineConfig;
using crossbar::CrossbarMapping;
using crossbar::IdealCrossbarEngine;
using crossbar::ProgrammedArray;
using crossbar::QuantizedCouplings;

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t n = 64,
                   device::VariationParams variation = {}) {
    graph = std::make_unique<problems::Graph>(
        problems::random_graph(n, 8.0, problems::WeightScheme::kUnit, seed));
    model = std::make_shared<const ising::IsingModel>(
        problems::maxcut_to_ising(*graph));
    quantized = std::make_unique<QuantizedCouplings>(model->couplings(), 8);
    mapping = std::make_unique<CrossbarMapping>(
        n, quantized->has_negative() ? 2 : 1,
        crossbar::MappingConfig{8, 8, true});
    array = std::make_shared<const ProgrammedArray>(
        *quantized, *mapping, device::DgFefetParams{}, variation, seed);
  }

  std::unique_ptr<problems::Graph> graph;
  std::shared_ptr<const ising::IsingModel> model;
  std::unique_ptr<QuantizedCouplings> quantized;
  std::unique_ptr<CrossbarMapping> mapping;
  std::shared_ptr<const ProgrammedArray> array;
};

TEST(IdealEngine, ComputesExactVmv) {
  Fixture fx(1);
  IdealCrossbarEngine engine(*fx.model, *fx.mapping, Accounting::kInSitu);
  util::Rng rng(2);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{3, 40};
  const auto result = engine.evaluate(spins, flips, {0.5, 0.35});
  EXPECT_NEAR(result.raw_vmv, fx.model->incremental_vmv(spins, flips), 1e-12);
  EXPECT_NEAR(result.e_inc, result.raw_vmv * 0.5, 1e-12);
}

TEST(IdealEngine, InSituTraceCounts) {
  Fixture fx(3);
  IdealCrossbarEngine engine(*fx.model, *fx.mapping, Accounting::kInSitu);
  util::Rng rng(4);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{0, 9};  // interleaved: distinct groups
  const auto result = engine.evaluate(spins, flips, {1.0, 0.7});
  // 2 row passes x |F| columns x 8 bits x 1 plane.
  EXPECT_EQ(result.trace.adc_conversions, 2u * 2u * 8u);
  EXPECT_EQ(result.trace.mux_slot_cycles, 2u);
  EXPECT_EQ(result.trace.row_drives, 2u * (64u - 2u));
  EXPECT_EQ(result.trace.column_drives, 2u * 2u * 8u);
}

TEST(IdealEngine, FullArrayTraceCounts) {
  Fixture fx(5);
  IdealCrossbarEngine engine(*fx.model, *fx.mapping,
                             Accounting::kDirectFullArray);
  util::Rng rng(6);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{1};
  const auto result = engine.evaluate(spins, flips, {1.0, 0.7});
  EXPECT_EQ(result.trace.adc_conversions, 2u * 64u * 8u);
  EXPECT_EQ(result.trace.mux_slot_cycles, 2u * 8u);
  EXPECT_EQ(result.trace.row_drives, 2u * 64u);
}

TEST(IdealEngine, ConversionRatioMatchesPaperStory) {
  // 2 flips on an n-spin instance: full-array / in-situ = n / |F|.
  Fixture fx(7);
  IdealCrossbarEngine in_situ(*fx.model, *fx.mapping, Accounting::kInSitu);
  IdealCrossbarEngine full(*fx.model, *fx.mapping,
                           Accounting::kDirectFullArray);
  util::Rng rng(8);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{10, 20};
  const auto a = in_situ.evaluate(spins, flips, {1.0, 0.7});
  const auto b = full.evaluate(spins, flips, {1.0, 0.7});
  EXPECT_EQ(b.trace.adc_conversions / a.trace.adc_conversions, 64u / 2u);
  EXPECT_EQ(b.trace.mux_slot_cycles / a.trace.mux_slot_cycles, 8u);
}

TEST(AnalogEngine, NoiselessAgreesWithIdealWithinQuantization) {
  Fixture fx(9);
  AnalogEngineConfig config;
  config.adc.noise_lsb_rms = 0.0;
  config.model_ir_drop = false;
  AnalogCrossbarEngine analog(fx.array, config);
  IdealCrossbarEngine ideal(*fx.model, *fx.mapping, Accounting::kInSitu);

  util::Rng rng(10);
  const ising::FractionalFactor factor;
  const circuit::BgDac dac;
  for (int trial = 0; trial < 60; ++trial) {
    const auto spins = ising::random_spins(64, rng);
    const auto flips = ising::random_flip_set(64, 2, rng);
    const double vbg = dac.quantize(rng.uniform(0.2, 0.7));
    // The analog engine realizes f as the device-current ratio; compare on
    // the raw VMV which divides that factor back out.
    const auto a = analog.evaluate(spins, flips, {0.0, vbg});
    const auto b = ideal.evaluate(spins, flips, {1.0, vbg});
    // Error budget: each of the 2 row passes x |F| columns floor-rounds up
    // to 1 LSB per bit column, amplified by the shift-add bit weights
    // (sum_b 2^b = 2^k - 1), and re-scaled by I_max / I_on(vbg).
    const double i_on = fx.array->on_current(vbg);
    const double i_max = fx.array->on_current(0.7);
    const double lsb_in_vmv =
        fx.quantized->scale() * analog.adc().lsb_current() / i_max;
    const double budget = 2.0 * 2.0 * 255.0 * lsb_in_vmv * (i_max / i_on);
    EXPECT_NEAR(a.raw_vmv, b.raw_vmv, budget) << "vbg=" << vbg;
  }
}

TEST(AnalogEngine, RealizesFractionalFactorInSitu) {
  // e_inc / raw_vmv must track I_on(vbg) / I_on(vbg_max), i.e. the
  // hardware realization of f(T) (Fig. 6(c)).
  Fixture fx(11);
  AnalogEngineConfig config;
  config.adc.noise_lsb_rms = 0.0;
  config.model_ir_drop = false;
  AnalogCrossbarEngine engine(fx.array, config);
  util::Rng rng(12);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{5, 33};
  for (const double vbg : {0.3, 0.5, 0.7}) {
    const auto result = engine.evaluate(spins, flips, {0.0, vbg});
    if (result.raw_vmv == 0.0) continue;
    const double f_hw =
        fx.array->on_current(vbg) / fx.array->on_current(0.7);
    EXPECT_NEAR(result.e_inc / result.raw_vmv, f_hw, 1e-9);
  }
}

TEST(AnalogEngine, TraceMatchesIdealInSituAccounting) {
  Fixture fx(13);
  AnalogEngineConfig config;
  AnalogCrossbarEngine analog(fx.array, config);
  IdealCrossbarEngine ideal(*fx.model, *fx.mapping, Accounting::kInSitu);
  util::Rng rng(14);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{2, 17};
  const auto a = analog.evaluate(spins, flips, {1.0, 0.7});
  const auto b = ideal.evaluate(spins, flips, {1.0, 0.7});
  // Unit-weight graph: all |mag| = 255, every bit column present.
  EXPECT_EQ(a.trace.adc_conversions, b.trace.adc_conversions);
  EXPECT_EQ(a.trace.mux_slot_cycles, b.trace.mux_slot_cycles);
}

TEST(AnalogEngine, ReadNoiseSpreadsEinc) {
  Fixture quiet(15);
  Fixture noisy(15, 64, device::VariationParams{0.0, 0.1, 0.0, 0.0});
  AnalogEngineConfig config;
  config.adc.noise_lsb_rms = 0.0;
  AnalogCrossbarEngine quiet_engine(quiet.array, config);
  AnalogCrossbarEngine noisy_engine(noisy.array, config);

  util::Rng rng(16);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{7, 45};
  util::RunningStats quiet_stats;
  util::RunningStats noisy_stats;
  for (int i = 0; i < 300; ++i) {
    quiet_stats.add(quiet_engine.evaluate(spins, flips, {1.0, 0.7}).e_inc);
    noisy_stats.add(noisy_engine.evaluate(spins, flips, {1.0, 0.7}).e_inc);
  }
  EXPECT_LT(quiet_stats.stddev(), 1e-9);  // deterministic without noise
  EXPECT_GT(noisy_stats.stddev(), 1e-3);
  EXPECT_NEAR(noisy_stats.mean(), quiet_stats.mean(),
              5.0 * noisy_stats.stddev() / std::sqrt(300.0));
}

TEST(AnalogEngine, StuckOffCellsBiasResult) {
  Fixture healthy(17);
  Fixture faulty(17, 64, device::VariationParams{0.0, 0.0, 0.5, 0.0});
  EXPECT_GT(faulty.array->num_faulted_bit_cells(), 0u);
  AnalogEngineConfig config;
  config.adc.noise_lsb_rms = 0.0;
  AnalogCrossbarEngine healthy_engine(healthy.array, config);
  AnalogCrossbarEngine faulty_engine(faulty.array, config);
  util::Rng rng(18);
  util::RunningStats magnitude_healthy;
  util::RunningStats magnitude_faulty;
  for (int trial = 0; trial < 100; ++trial) {
    const auto spins = ising::random_spins(64, rng);
    const auto flips = ising::random_flip_set(64, 2, rng);
    magnitude_healthy.add(std::fabs(
        healthy_engine.evaluate(spins, flips, {1.0, 0.7}).e_inc));
    magnitude_faulty.add(std::fabs(
        faulty_engine.evaluate(spins, flips, {1.0, 0.7}).e_inc));
  }
  // Half the bit-cells dead: conductance (and thus |E_inc|) shrinks.
  EXPECT_LT(magnitude_faulty.mean(), magnitude_healthy.mean());
}

TEST(AnalogEngine, IrDropAttenuationIsCalibratedOut) {
  Fixture fx(19);
  AnalogEngineConfig lossless;
  lossless.adc.noise_lsb_rms = 0.0;
  lossless.model_ir_drop = false;
  AnalogEngineConfig lossy = lossless;
  lossy.model_ir_drop = true;
  AnalogCrossbarEngine engine_lossless(fx.array, lossless);
  AnalogCrossbarEngine engine_lossy(fx.array, lossy);
  EXPECT_LT(engine_lossy.tile_attenuation(), 1.0 + 1e-12);

  util::Rng rng(20);
  const auto spins = ising::random_spins(64, rng);
  const ising::FlipSet flips{1, 50};
  // The digital normalization divides the attenuation back out, so results
  // agree up to ADC requantization of the attenuated currents.
  const auto a = engine_lossless.evaluate(spins, flips, {1.0, 0.7});
  const auto b = engine_lossy.evaluate(spins, flips, {1.0, 0.7});
  const double lsb_in_vmv =
      fx.quantized->scale() * engine_lossless.adc().lsb_current() /
      fx.array->on_current(0.7);
  EXPECT_NEAR(a.e_inc, b.e_inc, 2.0 * 2.0 * 255.0 * lsb_in_vmv);
}

TEST(Engines, RejectEmptyFlipSet) {
  Fixture fx(21);
  IdealCrossbarEngine ideal(*fx.model, *fx.mapping, Accounting::kInSitu);
  AnalogCrossbarEngine analog(fx.array, {});
  util::Rng rng(22);
  const auto spins = ising::random_spins(64, rng);
  EXPECT_THROW(ideal.evaluate(spins, {}, {1.0, 0.7}),
               fecim::contract_error);
  EXPECT_THROW(analog.evaluate(spins, {}, {1.0, 0.7}),
               fecim::contract_error);
}

}  // namespace
