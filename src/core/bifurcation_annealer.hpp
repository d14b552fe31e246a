// Simulated-bifurcation solver on the shared crossbar (Goto-style bSB/dSB).
//
// Each logical spin becomes a Kerr-oscillator position x_i in [-1, 1] with
// conjugate momentum y_i; the pump a(t) ramps 0 -> a0 and every oscillator
// passes through a pitchfork bifurcation toward x_i = +-1, with the coupling
// force steering the collective state toward low Ising energy:
//
//   y_i += (-(a0 - a(t)) * x_i - c0 * h_i) * dt
//   x_i += a0 * y_i * dt            (symplectic Euler, inelastic walls)
//
// The local fields h_i = (J b)_i are extracted from the SAME crossbar
// engines the in-situ annealer uses -- the array is driven with a binarized
// image b of the oscillator positions and each column's field is sensed as
// a single-flip VMV readout, so SB inherits the full analog stack (device
// variation, IR drop, ADC quantization, counter-keyed readout noise) with
// zero new hardware modeling.  Variants differ only in the binarization:
//
//   * kBallistic (bSB): stochastic dither, P(b_i = +1) = (1 + x_i) / 2, so
//     E[b] = x and the sensed field is an unbiased estimate of (J x)_i.
//     Dither draws are counter-keyed per (step, spin) -- never from the
//     sequential RNG -- so runs stay a pure function of (seed, tile shape).
//   * kDiscrete (dSB): b = sign(x); the discretized force is what makes dSB
//     resist error accumulation on analog hardware.
#pragma once

#include <memory>

#include "core/annealer.hpp"
#include "core/schedule.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/mapping.hpp"
#include "crossbar/tiling.hpp"
#include "device/dg_fefet.hpp"
#include "device/variation.hpp"

namespace fecim::core {

enum class SbVariant {
  kBallistic,  ///< dithered drive, force from (an estimate of) J x
  kDiscrete    ///< sign(x) drive, force from J sign(x)
};

struct SbConfig {
  /// SB time steps; each step performs one field extraction per flippable
  /// spin (n single-flip readouts), so a step costs ~n in-situ iterations.
  std::size_t steps = 1000;
  SbVariant variant = SbVariant::kBallistic;
  double dt = 0.5;            ///< symplectic time step
  double a0 = 1.0;            ///< detuning / final pump amplitude
  /// Coupling strength; 0 = auto-calibrate to 0.5 / (sigma * sqrt(n)) with
  /// sigma the rms coupling value (the standard SB normalization, keeping
  /// the coupling force comparable to the confining force at bifurcation).
  double c0 = 0.0;
  /// Initial momentum amplitude: y_i ~ U(-momentum_init, momentum_init)
  /// breaks the x = y = 0 fixed point symmetrically.
  double momentum_init = 0.01;

  crossbar::MappingConfig mapping{};
  crossbar::TileShape tiles{};

  enum class EngineKind {
    kAnalog,  ///< DG FeFET currents + variation + ADC (default)
    kIdeal    ///< exact arithmetic, in-situ cost accounting (ablations)
  };
  EngineKind engine = EngineKind::kAnalog;

  device::DgFefetParams device{};
  device::VariationParams variation{};
  crossbar::AnalogEngineConfig analog{};
  std::uint64_t array_seed = 0x5eed;  ///< programming-time variation stream
  /// Digest-keyed programmed-array sharing (see InSituConfig::array_cache).
  std::shared_ptr<crossbar::ArrayCache> array_cache;

  /// Warm start: positions are biased toward these spins (x_i = 0.5 sigma_i)
  /// instead of a random configuration.  Null = random initialization.
  std::shared_ptr<const ising::SpinVector> initial_spins;

  TraceOptions trace{};
};

class BifurcationAnnealer final : public Annealer {
 public:
  /// `model` must be pure quadratic (no fields) -- callers fold fields with
  /// IsingModel::with_ancilla() first.  The ancilla oscillator is pinned at
  /// x = +1, y = 0 and never updated.
  BifurcationAnnealer(std::shared_ptr<const ising::IsingModel> model,
                      SbConfig config);

  using Annealer::run;
  AnnealResult run(std::uint64_t seed,
                   const CancellationToken& token) const override;

  cost::ExpUnit exp_unit() const noexcept override {
    return cost::ExpUnit::kNone;  // no Metropolis test anywhere in SB
  }
  std::string_view name() const noexcept override {
    return config_.variant == SbVariant::kBallistic ? "sb-ballistic"
                                                    : "sb-discrete";
  }
  const ising::IsingModel& model() const noexcept override { return *model_; }

  /// Effective coupling strength (auto-calibrated when config.c0 == 0).
  double coupling_strength() const noexcept { return c0_; }
  const SbSchedule& schedule() const noexcept { return schedule_; }
  /// Programmed array (null when running the ideal engine).
  std::shared_ptr<const crossbar::ProgrammedArray> array() const noexcept {
    return array_;
  }

 private:
  /// `quantized` is the model's couplings at config.mapping.bits, built
  /// once by the public constructor: it sets the mapping's plane count and
  /// programs the analog engine's array.
  BifurcationAnnealer(std::shared_ptr<const ising::IsingModel> model,
                      SbConfig config,
                      const crossbar::QuantizedCouplings& quantized);

  std::shared_ptr<const ising::IsingModel> model_;
  SbConfig config_;
  SbSchedule schedule_;
  crossbar::CrossbarMapping mapping_;
  std::shared_ptr<const crossbar::ProgrammedArray> array_;
  double c0_;
};

}  // namespace fecim::core
