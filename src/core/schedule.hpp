// Annealing schedules.
//
// BgAnnealingSchedule -- the paper's tunable back-gate flow (Sec. 3.4):
// V_BG starts at 0.7 V and steps down on the 0.01 V DAC grid, holding each
// level for a fixed number of iterations; once it reaches 0 V it stays there
// (annealing terminated).  The temperature and fractional factor are derived
// from the quantized voltage, so DAC granularity is inherent to the flow.
//
// ClassicSchedule -- geometric or fixed-rate temperature decay for the
// direct-E baseline annealers (temperature in energy units).
//
// SbSchedule -- the simulated-bifurcation pump ramp: the bifurcation
// parameter a(t) rises linearly 0 -> a0 across the step budget, sweeping
// every oscillator through its pitchfork bifurcation (the SB analogue of
// cooling).  The time step is constant; both knobs live here so the CLI and
// benches configure SB the same way they configure the thermal ladders.
#pragma once

#include <cstddef>

#include "circuit/drivers.hpp"
#include "ising/fractional_factor.hpp"

namespace fecim::core {

class BgAnnealingSchedule {
 public:
  /// Direction of the back-gate sweep.
  ///
  /// kRampUp (default): V_BG climbs v_min -> v_max, so E_inc (which scales
  /// with the cell current) grows over the run and the acceptance test
  /// "E_inc <= rand(0,1)" tightens -- the linearized Metropolis rule
  /// P(accept) = max(0, 1 - dE * beta) with coldness beta = f rising from 0
  /// to 1.  This is the physically coherent realization of Alg. 1.
  ///
  /// kPaperLiteral: V_BG falls v_max -> v_min as the paper's text states.
  /// Under the same comparison this accepts *more* uphill moves as it
  /// cools (greedy descent first, noise injection last); it converges
  /// measurably worse on hard instances -- see bench_ablation_acceptance.
  enum class Direction { kRampUp, kPaperLiteral };

  struct Config {
    circuit::BgDac dac{};
    std::size_t total_iterations = 1000;
    ising::FractionalFactor::Coefficients factor_coefficients{};
    Direction direction = Direction::kRampUp;
  };

  explicit BgAnnealingSchedule(const Config& config);

  struct Point {
    double vbg;          ///< quantized back-gate voltage [V]
    double factor;       ///< ideal f(T) at this voltage
    double temperature;  ///< T in the fractional factor's domain
  };

  Point at(std::size_t iteration) const;

  /// Iterations spent on each DAC level before stepping down.
  std::size_t hold_iterations() const noexcept { return hold_; }
  std::size_t num_levels() const noexcept;
  const ising::FractionalFactor& factor() const noexcept { return factor_; }
  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  ising::FractionalFactor factor_;
  std::size_t hold_;
};

class ClassicSchedule {
 public:
  /// kGeometric interpolates t_start -> t_end across the budget;
  /// kFixedDecay applies T *= decay each iteration regardless of budget
  /// (the standard digital-annealer configuration [9, 10]) with t_end as a
  /// floor -- short budgets then terminate while still hot.
  enum class Kind { kGeometric, kFixedDecay };

  struct Config {
    double t_start = 10.0;
    double t_end = 0.01;
    std::size_t total_iterations = 1000;
    Kind kind = Kind::kGeometric;
    double decay = 0.999;  ///< per-iteration factor for kFixedDecay
  };

  explicit ClassicSchedule(const Config& config);

  double temperature(std::size_t iteration) const;
  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

class SbSchedule {
 public:
  struct Config {
    double a0 = 1.0;       ///< detuning / final pump amplitude
    double dt = 0.5;       ///< symplectic time step
    std::size_t total_steps = 1000;
  };

  explicit SbSchedule(const Config& config);

  struct Point {
    double pump;  ///< a(t) in [0, a0]; a0 - a(t) is the confining stiffness
    double dt;    ///< time step (constant, carried for uniform Point shape)
  };

  Point at(std::size_t step) const;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace fecim::core
