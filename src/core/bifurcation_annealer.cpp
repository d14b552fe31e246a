#include "core/bifurcation_annealer.hpp"

#include <cmath>

#include "core/run_driver.hpp"
#include "crossbar/ideal_engine.hpp"
#include "ising/flipset.hpp"
#include "util/assert.hpp"

namespace fecim::core {

namespace {

/// Standard SB coupling normalization c0 = 0.5 / (sigma * sqrt(n)) with
/// sigma the rms off-diagonal coupling.  J stores both triangles, so the
/// stored entries are exactly the n(n-1) ordered off-diagonal pairs.
double calibrate_c0(const ising::IsingModel& model) {
  const auto& j = model.couplings();
  const std::size_t n = model.num_spins();
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < n; ++r)
    for (const double v : j.row_values(r)) sum_sq += v * v;
  if (n < 2 || sum_sq <= 0.0) return 1.0;
  const double sigma =
      std::sqrt(sum_sq / (static_cast<double>(n) * static_cast<double>(n - 1)));
  return 0.5 / (sigma * std::sqrt(static_cast<double>(n)));
}

}  // namespace

BifurcationAnnealer::BifurcationAnnealer(
    std::shared_ptr<const ising::IsingModel> model, SbConfig config)
    : BifurcationAnnealer(model, config,
                          crossbar::QuantizedCouplings(model->couplings(),
                                                       config.mapping.bits)) {}

BifurcationAnnealer::BifurcationAnnealer(
    std::shared_ptr<const ising::IsingModel> model, SbConfig config,
    const crossbar::QuantizedCouplings& quantized)
    : model_(std::move(model)),
      config_(std::move(config)),
      schedule_({config_.a0, config_.dt, config_.steps}),
      mapping_(model_->num_spins(), quantized.has_negative() ? 2 : 1,
               config_.mapping) {
  FECIM_EXPECTS(model_ != nullptr);
  FECIM_EXPECTS(!model_->has_fields());  // fold fields via with_ancilla()
  FECIM_EXPECTS(model_->num_flippable() >= 1);
  FECIM_EXPECTS(config_.c0 >= 0.0);
  FECIM_EXPECTS(config_.momentum_init >= 0.0);
  c0_ = config_.c0 > 0.0 ? config_.c0 : calibrate_c0(*model_);

  if (config_.engine == SbConfig::EngineKind::kAnalog) {
    if (config_.array_cache) {
      array_ = config_.array_cache->get_or_build(quantized, mapping_,
                                                 config_.device,
                                                 config_.variation,
                                                 config_.array_seed,
                                                 config_.tiles);
    } else {
      array_ = std::make_shared<const crossbar::ProgrammedArray>(
          quantized, mapping_, config_.device, config_.variation,
          config_.array_seed, config_.tiles);
    }
    // One-time IR-drop ladder solve shared by every per-run engine instance
    // (same reasoning as the in-situ annealer; the array is immutable).
    if (config_.analog.model_ir_drop &&
        config_.analog.cached_ir_attenuation <= 0.0) {
      const crossbar::AnalogCrossbarEngine probe(array_, config_.analog);
      config_.analog.cached_ir_attenuation = probe.ir_attenuation();
      config_.analog.cached_band_ir_attenuation.assign(
          probe.band_attenuations().begin(), probe.band_attenuations().end());
    }
  }
}

AnnealResult BifurcationAnnealer::run(std::uint64_t seed,
                                      const CancellationToken& token) const {
  const std::size_t n = model_->num_spins();
  const std::size_t flippable = model_->num_flippable();
  const bool ballistic = config_.variant == SbVariant::kBallistic;

  std::unique_ptr<crossbar::EincEngine> engine;
  if (config_.engine == SbConfig::EngineKind::kAnalog) {
    engine = std::make_unique<crossbar::AnalogCrossbarEngine>(array_,
                                                              config_.analog);
  } else {
    // No local-field cache: the drive vector below is NOT the tracked spin
    // configuration (it is re-binarized from the oscillator positions every
    // step), so the cache-coherence protocol cannot apply.  The stateless
    // CSR row walk serves each single-flip readout directly.
    engine = std::make_unique<crossbar::IdealCrossbarEngine>(
        *model_, mapping_, crossbar::Accounting::kInSitu, config_.tiles);
  }
  engine->begin_run(seed);

  // Seed -> spins -> energy -> trace buffers -> cancellation gate.  The
  // driver's spin vector is SB's solution register: it tracks sign(x) and
  // carries the exact energy bookkeeping.
  RunDriver driver(*model_, seed, token,
                   {config_.steps, config_.trace, config_.initial_spins.get()});
  auto& rng = driver.rng;
  auto& spins = driver.spins;

  // Oscillator state.  Positions start at half amplitude toward the initial
  // configuration (so warm starts bias the basin, not just the register);
  // momenta break the x = 0 fixed point with small sequential-RNG kicks.
  std::vector<double> x(n), y(n, 0.0), field(flippable, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.5 * static_cast<double>(spins[i]);
  for (std::size_t i = 0; i < flippable; ++i)
    y[i] = config_.momentum_init * (2.0 * rng.uniform01() - 1.0);
  if (model_->has_ancilla()) {
    // The ancilla oscillator is clamped at +1 so field extraction sees the
    // folded linear terms at full strength.
    x[model_->ancilla_index()] = 1.0;
    y[model_->ancilla_index()] = 0.0;
  }

  // Counter-keyed dither (ballistic only): draw (step, spin) is independent
  // of evaluation order, so the run is thread-invariant and pinned per
  // (seed, tile shape) exactly like the readout-noise streams.
  const util::NoiseStream dither(seed, util::stream_site::kSbDither);

  // Sensing at full back-gate drive: f_hw(vbg_max) = 1, so the analog
  // engine's raw_vmv estimate is the plain VMV with no annealing scaling --
  // SB's "temperature" lives in the pump ramp, not in the readout.
  const crossbar::AnnealSignal signal{1.0, config_.device.vbg_max};

  ising::SpinVector drive(n, ising::Spin{1});
  ising::FlipSet probe(1, 0), flips;
  flips.reserve(flippable);

  for (std::size_t step = 0; step < config_.steps; ++step) {
    driver.poll(step);
    const auto point = schedule_.at(step);

    // Binarize the oscillator positions into the crossbar drive vector.
    for (std::size_t j = 0; j < flippable; ++j) {
      const bool up =
          ballistic
              ? 2.0 * dither.uniform01(step * flippable + j) - 1.0 < x[j]
              : x[j] >= 0.0;
      drive[j] = up ? ising::Spin{1} : ising::Spin{-1};
    }

    // Extract every local field h_i = (J b)_i as a single-flip readout:
    // flipping column i of drive b gives raw_vmv = -b_i (J b)_i, so one
    // sweep of n readouts senses the whole field vector on the same
    // conversion path (and noise streams) the in-situ annealer uses.
    for (std::size_t i = 0; i < flippable; ++i) {
      probe[0] = static_cast<std::uint32_t>(i);
      const auto evaluation = engine->evaluate(drive, probe, signal);
      crossbar::merge_trace(driver.result.ledger, evaluation.trace);
      field[i] = -static_cast<double>(drive[i]) * evaluation.raw_vmv;
    }

    // Symplectic Euler with the fields frozen for the whole step (they were
    // all sensed from the same drive, so per-i interleaving is equivalent to
    // the two-phase kick/drift update), then inelastic walls.
    const double stiffness = config_.a0 - point.pump;
    for (std::size_t i = 0; i < flippable; ++i) {
      y[i] += (-stiffness * x[i] - c0_ * field[i]) * point.dt;
      x[i] += config_.a0 * y[i] * point.dt;
      if (x[i] > 1.0) {
        x[i] = 1.0;
        y[i] = 0.0;
      } else if (x[i] < -1.0) {
        x[i] = -1.0;
        y[i] = 0.0;
      }
    }
    ++driver.result.ledger.iterations;

    // Commit sign changes to the solution register with exact energies.
    flips.clear();
    for (std::size_t i = 0; i < flippable; ++i) {
      const ising::Spin sign = x[i] >= 0.0 ? ising::Spin{1} : ising::Spin{-1};
      if (sign != spins[i]) flips.push_back(static_cast<std::uint32_t>(i));
    }
    if (!flips.empty()) {
      const double delta_e = model_->delta_energy(spins, flips);
      driver.energy += delta_e;
      ising::flip_in_place(spins, flips);
      driver.count_accept(flips.size(), delta_e > 0.0);
      driver.track_best();
    }

    driver.record(step, point.pump);
  }

  return driver.finish();
}

}  // namespace fecim::core
