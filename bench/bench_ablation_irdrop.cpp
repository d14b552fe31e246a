// Ablation ABL5: wire parasitics / IR drop and array tiling.
//
// Sweeps the wire resistance per cell pitch, reporting the monolithic vs
// tiled source-line attenuation and the analog annealer's quality with the
// IR-drop model on -- showing why the digital calibration constant absorbs
// the attenuation and what tiling buys at paper scale.
//
// The attenuation columns come from the tile-aware execution path itself:
// two AnalogCrossbarEngine instances over the same 3000-spin programmed
// array (one monolithic, one on the <=1024-row tile grid) report their
// tile_attenuation(), so this ablation can never drift from what the
// engines actually apply.  plan_tiles() supplies only the grid geometry
// and the Elmore delay.
#include <cstdio>

#include "bench_common.hpp"
#include "circuit/parasitics.hpp"
#include "core/insitu_annealer.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/tiling.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"

using namespace fecim;

int main() {
  bench::print_header("ABL5 -- wire parasitics, IR drop and tiling");

  std::printf("\n-- source-line attenuation vs wire resistance "
              "(3000-row array, engine MNA DC solve) --\n");
  // One paper-scale array, programmed once and shared by every engine: the
  // attenuation depends only on (rows, wire), so the sweep re-solves the
  // ladders through the same constructor path the annealer uses.  (Model
  // built directly -- no reference-cut restarts; only the array matters.)
  const auto paper_model = std::make_shared<const ising::IsingModel>(
      problems::maxcut_to_ising(problems::gset_like_instance(3000, 5)));
  const crossbar::TileShape tile_shape{1024, 1024};
  core::InSituConfig mono_config;
  core::InSituConfig tiled_config;
  tiled_config.tiles = tile_shape;
  // iterations=1: the annealers here only program the arrays.
  mono_config.iterations = tiled_config.iterations = 1;
  const core::InSituCimAnnealer mono_annealer(paper_model, mono_config);
  const core::InSituCimAnnealer tiled_annealer(paper_model, tiled_config);

  util::Table att({"r_wire [ohm/um]", "monolithic 3000 rows",
                   "tiled (<=1024 rows)", "Elmore delay (tile)"});
  for (const double r_per_um : {1.0, 4.0, 16.0, 64.0}) {
    circuit::WireTech tech;
    tech.r_per_um = r_per_um;
    crossbar::AnalogEngineConfig engine_config;
    engine_config.wire = tech;
    const crossbar::AnalogCrossbarEngine mono_engine(mono_annealer.array(),
                                                     engine_config);
    const crossbar::AnalogCrossbarEngine tiled_engine(tiled_annealer.array(),
                                                      engine_config);
    const auto plan = tiled_annealer.array()->plan(tech);
    const auto tile_parasitics = circuit::estimate_line_parasitics(
        plan.tile_rows,
        tiled_annealer.array()->on_current(
            tiled_annealer.array()->device_params().vbg_max),
        tiled_annealer.array()->device_params().read_vdl, tech);
    att.row()
        .add(r_per_um, 1)
        .add(mono_engine.tile_attenuation(), 4)
        .add(tiled_engine.tile_attenuation(), 4)
        .add(util::si_format(tile_parasitics.elmore_delay, "s"));
  }
  std::printf("%s", att.str().c_str());

  std::printf("\n-- annealing quality with the IR-drop model on/off --\n");
  const auto instance = bench::make_instance(1000, 0);
  util::Table quality({"wire model", "norm. cut", "success"});
  for (const bool ir_on : {false, true}) {
    core::InSituConfig config;
    config.iterations = 1000;
    config.analog.model_ir_drop = ir_on;
    core::InSituCimAnnealer annealer(instance.model, config);
    const auto result =
        core::run_campaign(annealer, instance, bench::campaign_config(91));
    quality.row()
        .add(ir_on ? "IR drop modeled" : "ideal wires")
        .add(result.normalized.mean(), 3)
        .add(result.success_rate * 100.0, 0);
  }
  std::printf("%s", quality.str().c_str());
  std::printf("the fixed digital calibration divides the attenuation back "
              "out, so quality is insensitive until the ADC requantization "
              "of attenuated currents bites (very high r_wire).\n");
  return 0;
}
