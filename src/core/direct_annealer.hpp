// Direct-E baseline annealers (CiM/FPGA, CiM/ASIC and MESA [7, 18]).
//
// Classic simulated annealing: per iteration a random flip set is proposed,
// the new energy is obtained through a full-array VMV multiplication
// (O(n^2) product terms -- every column sensed), dE is formed digitally,
// and uphill moves invoke the exponential unit for the Metropolis test.
// The FPGA and ASIC variants differ only in the e^x hardware, i.e. in cost
// translation.  MESA, the multi-epoch annealer of Yin et al. [7], is the
// same loop split into epochs: each epoch restarts from the best
// configuration found so far and cools from a halved start temperature.
// One class covers all three; make_annealer() says what each one sets.
#pragma once

#include <memory>

#include "core/annealer.hpp"
#include "core/schedule.hpp"
#include "crossbar/mapping.hpp"
#include "crossbar/tiling.hpp"

namespace fecim::core {

struct DirectEConfig {
  std::size_t iterations = 1000;  ///< total budget across all epochs
  /// Schedule restarts (MESA [7]): the budget splits into this many epochs
  /// (at most one per iteration, early epochs taking the remainder); each
  /// epoch after the first restarts from the best configuration so far and
  /// cools from half the previous epoch's start temperature.
  std::size_t epochs = 1;
  std::size_t flips_per_iteration = 1;
  /// 0 = auto-calibrate from the move-energy scale of the instance.
  double t_start = 0.0;
  /// Final temperature as a fraction of t_start.
  double t_end_fraction = 1e-3;
  /// Digital annealers apply a fixed per-iteration decay [9, 10]; short
  /// budgets then stop while still hot -- the paper's baselines fail the
  /// 800/1000-node groups for exactly this reason.  Use kGeometric for a
  /// budget-normalized ladder instead.
  ClassicSchedule::Kind schedule_kind = ClassicSchedule::Kind::kFixedDecay;
  double decay_per_iteration = 0.999;
  crossbar::MappingConfig mapping{};
  /// Physical tile grid for the hardware event accounting (0 = monolithic);
  /// the baselines' arithmetic is exact either way.
  crossbar::TileShape tiles{};
  cost::ExpUnit exp_unit = cost::ExpUnit::kFpga;
  /// Pipelined implementations [18] evaluate e^(-dE/T) unconditionally every
  /// iteration (branchless datapath) and select afterwards; set false to
  /// charge the unit only on uphill moves.
  bool pipelined_exp_unit = true;
  /// Warm start (core/run_driver.hpp); null = random initialization.
  std::shared_ptr<const ising::SpinVector> initial_spins;
  TraceOptions trace{};
};

class DirectEAnnealer final : public Annealer {
 public:
  DirectEAnnealer(std::shared_ptr<const ising::IsingModel> model,
                  DirectEConfig config);

  using Annealer::run;
  AnnealResult run(std::uint64_t seed,
                   const CancellationToken& token) const override;

  cost::ExpUnit exp_unit() const noexcept override { return config_.exp_unit; }
  const ising::IsingModel& model() const noexcept override { return *model_; }

  /// Auto-calibrated starting temperature (the mean uphill |dE| scale).
  double calibrated_t_start() const noexcept { return t_start_; }

 private:
  std::shared_ptr<const ising::IsingModel> model_;
  DirectEConfig config_;
  crossbar::CrossbarMapping mapping_;
  double t_start_;
};

}  // namespace fecim::core
