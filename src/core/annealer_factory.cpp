#include "core/annealer_factory.hpp"

#include "core/bifurcation_annealer.hpp"
#include "core/direct_annealer.hpp"
#include "util/assert.hpp"

namespace fecim::core {

std::unique_ptr<Annealer> make_annealer(
    AnnealerKind kind, std::shared_ptr<const ising::IsingModel> model,
    const StandardSetup& setup) {
  FECIM_EXPECTS(model != nullptr);

  const crossbar::MappingConfig mapping{setup.bits, setup.mux_ratio};

  switch (kind) {
    case AnnealerKind::kThisWork:
    case AnnealerKind::kThisWorkIdeal: {
      InSituConfig config;
      config.iterations = setup.iterations;
      config.flips_per_iteration = setup.flips_per_iteration;
      config.acceptance_gain = setup.acceptance_gain;
      config.mapping = mapping;
      config.tiles = setup.tiles;
      config.device = setup.device;
      config.variation = setup.variation;
      config.array_cache = setup.array_cache;
      config.initial_spins = setup.initial_spins;
      config.trace = setup.trace;
      config.engine = kind == AnnealerKind::kThisWork
                          ? InSituConfig::EngineKind::kAnalog
                          : InSituConfig::EngineKind::kIdeal;
      return std::make_unique<InSituCimAnnealer>(std::move(model),
                                                 std::move(config));
    }
    case AnnealerKind::kCimFpga:
    case AnnealerKind::kCimAsic:
    case AnnealerKind::kMesa: {
      DirectEConfig config;
      config.iterations = setup.iterations;
      config.flips_per_iteration = setup.baseline_flips;
      config.mapping = mapping;
      config.tiles = setup.tiles;
      config.exp_unit = kind == AnnealerKind::kCimAsic ? cost::ExpUnit::kAsic
                                                       : cost::ExpUnit::kFpga;
      config.initial_spins = setup.initial_spins;
      if (kind == AnnealerKind::kMesa) {
        // MESA [7]: four epochs, each re-laddering a budget-normalized
        // schedule from the best configuration so far.  Its exp unit fires
        // only on uphill moves, and it records no trajectory.
        config.epochs = 4;
        config.schedule_kind = ClassicSchedule::Kind::kGeometric;
        config.pipelined_exp_unit = false;
      } else {
        config.trace = setup.trace;
      }
      return std::make_unique<DirectEAnnealer>(std::move(model),
                                               std::move(config));
    }
    case AnnealerKind::kSbBallistic:
    case AnnealerKind::kSbDiscrete: {
      SbConfig config;
      config.steps = setup.iterations;
      config.variant = kind == AnnealerKind::kSbBallistic
                           ? SbVariant::kBallistic
                           : SbVariant::kDiscrete;
      config.dt = setup.sb_dt;
      config.a0 = setup.sb_a0;
      config.c0 = setup.sb_c0;
      config.mapping = mapping;
      config.tiles = setup.tiles;
      config.device = setup.device;
      config.variation = setup.variation;
      config.array_cache = setup.array_cache;
      config.initial_spins = setup.initial_spins;
      config.trace = setup.trace;
      return std::make_unique<BifurcationAnnealer>(std::move(model),
                                                   std::move(config));
    }
  }
  FECIM_ASSERT(false);
  return nullptr;
}

const char* annealer_kind_name(AnnealerKind kind) noexcept {
  switch (kind) {
    case AnnealerKind::kThisWork:
      return "This Work";
    case AnnealerKind::kThisWorkIdeal:
      return "This Work (ideal)";
    case AnnealerKind::kCimFpga:
      return "CiM/FPGA";
    case AnnealerKind::kCimAsic:
      return "CiM/ASIC";
    case AnnealerKind::kMesa:
      return "MESA";
    case AnnealerKind::kSbBallistic:
      return "SB (ballistic)";
    case AnnealerKind::kSbDiscrete:
      return "SB (discrete)";
  }
  return "unknown";
}

}  // namespace fecim::core
