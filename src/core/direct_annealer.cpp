#include "core/direct_annealer.hpp"

#include <algorithm>
#include <cmath>

#include "core/acceptance.hpp"
#include "core/run_driver.hpp"
#include "crossbar/bit_slicing.hpp"
#include "crossbar/ideal_engine.hpp"
#include "ising/flipset.hpp"
#include "util/assert.hpp"

namespace fecim::core {

namespace {

/// Start-temperature factor from one epoch to the next (MESA [7]).
constexpr double kEpochTemperatureDecay = 0.5;

/// Mean |dE| of random moves from random states: the conventional SA
/// starting-temperature scale (initial uphill acceptance ~ e^-1/3 with
/// t_start = 3x this estimate).
double estimate_move_scale(const ising::IsingModel& model,
                           std::size_t flips_per_iteration) {
  util::Rng rng(0xca11b7a7e);
  constexpr int kSamples = 128;
  double sum = 0.0;
  auto spins = ising::random_spins(model.num_spins(), rng);
  for (int s = 0; s < kSamples; ++s) {
    const auto flips = ising::random_flip_set(model.num_flippable(),
                                              flips_per_iteration, rng);
    sum += std::fabs(model.delta_energy(spins, flips));
    ising::flip_in_place(spins, flips);  // drift so samples decorrelate
  }
  return std::max(1e-12, sum / kSamples);
}

}  // namespace

DirectEAnnealer::DirectEAnnealer(std::shared_ptr<const ising::IsingModel> model,
                                 DirectEConfig config)
    : model_(std::move(model)),
      config_(std::move(config)),
      mapping_(model_->num_spins(),
               crossbar::QuantizedCouplings(model_->couplings(),
                                            config_.mapping.bits)
                       .has_negative()
                   ? 2
                   : 1,
               config_.mapping) {
  FECIM_EXPECTS(model_ != nullptr);
  FECIM_EXPECTS(config_.epochs >= 1);
  FECIM_EXPECTS(config_.flips_per_iteration >= 1);
  FECIM_EXPECTS(config_.flips_per_iteration <= model_->num_flippable());
  FECIM_EXPECTS(config_.t_end_fraction > 0.0 && config_.t_end_fraction <= 1.0);
  t_start_ = config_.t_start > 0.0
                 ? config_.t_start
                 : 3.0 * estimate_move_scale(*model_,
                                             config_.flips_per_iteration);
}

AnnealResult DirectEAnnealer::run(std::uint64_t seed,
                                  const CancellationToken& token) const {
  crossbar::IdealCrossbarEngine engine(*model_, mapping_,
                                       crossbar::Accounting::kDirectFullArray,
                                       config_.tiles);
  // Every applied flip set is reported back via on_flips_applied(), so the
  // engine serves each evaluation from its local-field cache instead of
  // re-walking CSR rows.
  engine.enable_local_field_cache();

  RunDriver driver(*model_, seed, token,
                   {config_.iterations, config_.trace,
                    config_.initial_spins.get()});
  auto& rng = driver.rng;
  auto& spins = driver.spins;

  const MetropolisAcceptance acceptance;

  // Reused proposal buffer: the loop below performs no heap allocations
  // after this point (plus the engine's lazy first-call cache build).
  ising::FlipSet flips;
  flips.reserve(config_.flips_per_iteration);

  // At most one epoch per iteration; a zero budget still builds the first
  // epoch's schedule, whose contract rejects it.
  const std::size_t epochs =
      std::max<std::size_t>(1, std::min(config_.epochs, config_.iterations));
  // `it` counts across epochs, so polling and tracing see one run.
  std::uint64_t it = 0;

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) {
      // Restart from the incumbent.  Rewriting the spins wholesale
      // invalidates the local fields; re-enabling the cache resets them.
      spins = driver.result.best_spins;
      driver.energy = driver.result.best_energy;
      engine.enable_local_field_cache();
    }
    const std::size_t length = config_.iterations / epochs +
                               (epoch < config_.iterations % epochs ? 1 : 0);
    const double t_start =
        t_start_ *
        std::pow(kEpochTemperatureDecay, static_cast<double>(epoch));
    const ClassicSchedule schedule({t_start, t_start * config_.t_end_fraction,
                                    length, config_.schedule_kind,
                                    config_.decay_per_iteration});

    for (std::size_t step = 0; step < length; ++step, ++it) {
      driver.poll(it);
      const double temperature = schedule.temperature(step);
      ising::random_flip_set_into(flips, model_->num_flippable(),
                                  config_.flips_per_iteration, rng);

      // The hardware computes E_new via the full-array VMV; dE follows
      // digitally.  Numerically dE = 4 sigma_r^T J sigma_c (+ field terms).
      const auto evaluation = engine.evaluate(spins, flips, {1.0, 0.0});
      crossbar::merge_trace(driver.result.ledger, evaluation.trace);
      ++driver.result.ledger.iterations;
      double delta_e = 4.0 * evaluation.raw_vmv;
      for (const auto i : flips)
        delta_e += -2.0 * model_->fields()[i] * static_cast<double>(spins[i]);

      const auto decision = acceptance.accept(delta_e, temperature, rng);
      if (config_.pipelined_exp_unit || decision.exp_evaluated)
        ++driver.result.ledger.exp_evaluations;
      if (decision.accepted) {
        driver.energy += delta_e;
        ising::flip_in_place(spins, flips);
        engine.on_flips_applied(spins, flips);
        driver.count_accept(flips.size(), delta_e > 0.0);
        driver.track_best();
      }

      driver.record(it, temperature);
    }
  }

  return driver.finish();
}

}  // namespace fecim::core
