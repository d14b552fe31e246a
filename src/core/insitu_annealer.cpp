#include "core/insitu_annealer.hpp"

#include "core/acceptance.hpp"
#include "core/run_driver.hpp"
#include "crossbar/ideal_engine.hpp"
#include "ising/flipset.hpp"
#include "util/assert.hpp"

namespace fecim::core {

InSituCimAnnealer::InSituCimAnnealer(
    std::shared_ptr<const ising::IsingModel> model, InSituConfig config)
    : InSituCimAnnealer(model, config,
                        crossbar::QuantizedCouplings(model->couplings(),
                                                     config.mapping.bits)) {}

InSituCimAnnealer::InSituCimAnnealer(
    std::shared_ptr<const ising::IsingModel> model, InSituConfig config,
    const crossbar::QuantizedCouplings& quantized)
    : model_(std::move(model)),
      config_(std::move(config)),
      schedule_([&] {
        auto schedule_config = config_.schedule;
        schedule_config.total_iterations = config_.iterations;
        return BgAnnealingSchedule(schedule_config);
      }()),
      mapping_(model_->num_spins(), quantized.has_negative() ? 2 : 1,
               config_.mapping) {
  FECIM_EXPECTS(model_ != nullptr);
  FECIM_EXPECTS(!model_->has_fields());  // fold fields via with_ancilla()
  FECIM_EXPECTS(config_.flips_per_iteration >= 1);
  FECIM_EXPECTS(config_.flips_per_iteration <= model_->num_flippable());
  FECIM_EXPECTS(config_.acceptance_gain > 0.0);
  // Keep the DAC range consistent with the device's annealing V_BG range.
  FECIM_EXPECTS(config_.schedule.dac.v_max <= config_.device.vbg_max + 1e-12);

  if (config_.engine == InSituConfig::EngineKind::kAnalog) {
    if (config_.array_cache) {
      // Digest-keyed sharing: identical (couplings, mapping, device,
      // variation, seed, tiles) across annealers resolve to one programmed
      // array.  Safe because the array is immutable (PERF.md invariant 1)
      // and bit-identical because all run-time noise is counter-keyed per
      // run seed, not per array instance (invariant 2).
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
    // Solve the IR-drop ladders once here: the array is immutable, so every
    // per-run engine instance reuses the same logical and per-tile
    // attenuations instead of re-running the MNA solves (which scale with
    // physical rows).
    if (config_.analog.model_ir_drop &&
        config_.analog.cached_ir_attenuation <= 0.0) {
      const crossbar::AnalogCrossbarEngine probe(array_, config_.analog);
      config_.analog.cached_ir_attenuation = probe.ir_attenuation();
      config_.analog.cached_band_ir_attenuation.assign(
          probe.band_attenuations().begin(), probe.band_attenuations().end());
    }
  }
}

void InSituCimAnnealer::cluster_flip_set(util::Rng& rng,
                                         RunWorkspace& ws) const {
  const std::size_t flippable = model_->num_flippable();
  double parity_mix = config_.parity_mix;
  if (parity_mix < 0.0) parity_mix = model_->has_ancilla() ? 0.25 : 0.0;
  std::size_t t = config_.flips_per_iteration;
  if (t > 1 && parity_mix > 0.0 && rng.bernoulli(parity_mix)) --t;

  auto& flips = ws.flips;
  auto& member = ws.member_mask;  // all-zero on entry, restored on exit
  flips.clear();
  auto take = [&](std::uint32_t spin) {
    flips.push_back(spin);
    member[spin] = 1;
  };
  take(static_cast<std::uint32_t>(rng.uniform_index(flippable)));

  const auto& j = model_->couplings();
  while (flips.size() < t) {
    const auto current = flips.back();
    const auto neighbors = j.row_cols(current);
    std::uint32_t next = 0;
    bool found = false;
    // With probability cluster_neighbor_bias take a coupled spin; isolated
    // or exhausted neighborhoods (and the remaining probability mass) fall
    // back to a uniform pick so the set always reaches size t and every
    // pair stays proposable.
    if (rng.bernoulli(config_.cluster_neighbor_bias)) {
      for (int attempt = 0; attempt < 8 && !neighbors.empty(); ++attempt) {
        const auto candidate =
            neighbors[rng.uniform_index(neighbors.size())];
        if (candidate >= flippable) continue;  // never flip the ancilla
        if (!member[candidate]) {
          next = candidate;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      // Bounded rejection sampling: when the set is sparse relative to the
      // flippable range (the standard regime), a non-member lands within a
      // couple of draws.  Dense sets (t approaching `flippable`) previously
      // degenerated into an unbounded coupon-collector loop; after the
      // bound trips, one draw picks uniformly among the remaining
      // non-members by rank, which is the same distribution.
      constexpr int kMaxRejects = 64;
      for (int attempt = 0; attempt < kMaxRejects && !found; ++attempt) {
        const auto candidate =
            static_cast<std::uint32_t>(rng.uniform_index(flippable));
        if (!member[candidate]) {
          next = candidate;
          found = true;
        }
      }
      if (!found) {
        std::size_t rank = rng.uniform_index(flippable - flips.size());
        for (std::uint32_t spin = 0; spin < flippable; ++spin) {
          if (member[spin]) continue;
          if (rank == 0) {
            next = spin;
            break;
          }
          --rank;
        }
      }
    }
    take(next);
  }

  for (const auto f : flips) member[f] = 0;
}

AnnealResult InSituCimAnnealer::run(std::uint64_t seed,
                                    const CancellationToken& token) const {
  const std::size_t n = model_->num_spins();
  const bool analog = config_.engine == InSituConfig::EngineKind::kAnalog;

  // Per-run engine instances: cheap wrappers over the shared immutable
  // model/array, so parallel campaigns need no locking.
  std::unique_ptr<crossbar::EincEngine> engine;
  if (analog) {
    engine = std::make_unique<crossbar::AnalogCrossbarEngine>(array_,
                                                              config_.analog);
  } else {
    auto ideal = std::make_unique<crossbar::IdealCrossbarEngine>(
        *model_, mapping_, crossbar::Accounting::kInSitu, config_.tiles);
    // This loop reports every applied flip set back through
    // on_flips_applied(), so the engine may serve evaluations from its
    // incrementally-maintained local-field cache.
    ideal->enable_local_field_cache();
    engine = std::move(ideal);
  }
  // Key the engine's readout-noise streams to this run: noisy evaluations
  // draw from (seed, site, conversion index), never from the driver's RNG,
  // so the proposal/acceptance draw sequence is independent of the noise
  // model.
  engine->begin_run(seed);

  // Seed -> spins -> energy -> trace buffers -> cancellation gate.
  RunDriver driver(*model_, seed, token,
                   {config_.iterations, config_.trace,
                    config_.initial_spins.get()});
  auto& rng = driver.rng;
  auto& spins = driver.spins;

  // Everything the inner loop touches is allocated here; the loop itself is
  // heap-allocation-free (see PERF.md and the counting-allocator test).
  RunWorkspace ws;
  ws.flips.reserve(config_.flips_per_iteration);
  ws.member_mask.assign(n, 0);
  // The analog engine's E_inc is a noisy hardware estimate, so exact energy
  // bookkeeping needs its own field cache; the ideal engine's raw_vmv is
  // already exact.
  if (analog) ws.field_cache.build(*model_, spins);

  const FractionalAcceptance acceptance;
  double previous_vbg = -1.0;
  ising::SweepFlipGenerator sweep(model_->num_flippable(),
                                  config_.flips_per_iteration);

  for (std::size_t it = 0; it < config_.iterations; ++it) {
    driver.poll(it);
    const auto point = schedule_.at(it);
    if (point.vbg != previous_vbg) {
      ++driver.result.ledger.bg_dac_updates;
      previous_vbg = point.vbg;
    }

    switch (config_.flip_selection) {
      case InSituConfig::FlipSelection::kCluster:
        cluster_flip_set(rng, ws);
        break;
      case InSituConfig::FlipSelection::kRandom:
        ising::random_flip_set_into(ws.flips, model_->num_flippable(),
                                    config_.flips_per_iteration, rng);
        break;
      case InSituConfig::FlipSelection::kSweep:
        sweep.next_into(ws.flips);
        break;
    }
    const auto evaluation =
        engine->evaluate(spins, ws.flips, {point.factor, point.vbg});
    crossbar::merge_trace(driver.result.ledger, evaluation.trace);
    ++driver.result.ledger.iterations;

    if (acceptance.accept(config_.acceptance_gain * evaluation.e_inc, rng)) {
      // Exact energy bookkeeping is simulation-side observability; the
      // hardware only updates the spin registers.  dE = 4 sigma_r^T J
      // sigma_c (the model is pure quadratic here); the cached local fields
      // supply the VMV in O(|F|^2) instead of a CSR row walk.
      driver.energy +=
          analog ? 4.0 * ws.field_cache.vmv(*model_, spins, ws.flips)
                 : 4.0 * evaluation.raw_vmv;
      ising::flip_in_place(spins, ws.flips);
      if (analog)
        ws.field_cache.apply_flips(*model_, spins, ws.flips);
      else
        engine->on_flips_applied(spins, ws.flips);
      driver.count_accept(ws.flips.size(), evaluation.e_inc > 0.0);
      driver.track_best();
    }

    driver.record(it, point.vbg);
  }

  return driver.finish();
}

}  // namespace fecim::core
