#include "core/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fecim::core {

BgAnnealingSchedule::BgAnnealingSchedule(const Config& config)
    : config_(config), factor_(config.factor_coefficients) {
  FECIM_EXPECTS(config_.total_iterations > 0);
  const std::size_t levels = config_.dac.num_levels();
  FECIM_EXPECTS(levels >= 2);
  // Hold each voltage level for an equal share of the budget; with fewer
  // iterations than levels the voltage steps faster than one level per
  // iteration and skips levels.
  hold_ = std::max<std::size_t>(1, config_.total_iterations / levels);
}

std::size_t BgAnnealingSchedule::num_levels() const noexcept {
  return config_.dac.num_levels();
}

BgAnnealingSchedule::Point BgAnnealingSchedule::at(
    std::size_t iteration) const {
  const std::size_t levels = config_.dac.num_levels();
  // Spread the DAC ladder uniformly across the budget: each level holds for
  // ~total/levels iterations ("T decreases only after a pre-set number of
  // iterations"); budgets shorter than the ladder skip levels instead.
  // Saturates at the final level past the budget end.
  const std::size_t steps =
      std::min(iteration * levels / config_.total_iterations, levels - 1);
  // kRampUp ascends from v_min toward v_max; kPaperLiteral descends from
  // v_max and parks at v_min ("remains at zero, terminating the annealing").
  const std::size_t level = config_.direction == Direction::kRampUp
                                ? steps
                                : levels - 1 - steps;
  Point point{};
  point.vbg = config_.dac.level_voltage(level);
  const double span = config_.dac.v_max - config_.dac.v_min;
  FECIM_ASSERT(span > 0.0);
  const double fraction = (point.vbg - config_.dac.v_min) / span;
  point.temperature =
      factor_.t_min() + (factor_.t_max() - factor_.t_min()) * fraction;
  point.factor = factor_(point.temperature);
  return point;
}

ClassicSchedule::ClassicSchedule(const Config& config) : config_(config) {
  FECIM_EXPECTS(config_.t_start > 0.0);
  FECIM_EXPECTS(config_.t_end > 0.0);
  FECIM_EXPECTS(config_.t_end <= config_.t_start);
  FECIM_EXPECTS(config_.total_iterations > 0);
  FECIM_EXPECTS(config_.decay > 0.0 && config_.decay <= 1.0);
}

double ClassicSchedule::temperature(std::size_t iteration) const {
  if (config_.kind == Kind::kFixedDecay) {
    const double t = config_.t_start *
                     std::pow(config_.decay, static_cast<double>(iteration));
    return std::max(t, config_.t_end);
  }
  if (config_.total_iterations == 1) return config_.t_start;
  const double progress = std::min(
      1.0, static_cast<double>(iteration) /
               static_cast<double>(config_.total_iterations - 1));
  return config_.t_start * std::pow(config_.t_end / config_.t_start, progress);
}

SbSchedule::SbSchedule(const Config& config) : config_(config) {
  FECIM_EXPECTS(config_.a0 > 0.0);
  FECIM_EXPECTS(config_.dt > 0.0);
  FECIM_EXPECTS(config_.total_steps > 0);
}

SbSchedule::Point SbSchedule::at(std::size_t step) const {
  // Linear pump 0 -> a0 reaching a0 exactly on the final step; a one-step
  // budget jumps straight to the bifurcated regime.
  const double progress =
      config_.total_steps == 1
          ? 1.0
          : std::min(1.0, static_cast<double>(step) /
                              static_cast<double>(config_.total_steps - 1));
  return {config_.a0 * progress, config_.dt};
}

}  // namespace fecim::core
