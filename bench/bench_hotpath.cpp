// Hot-path ratio benchmark: each row times an optimized simulator path (A)
// against the reference it replaced (B) on identical inputs and reports the
// A/B throughput ratio.  A ratio holds still when the whole host speeds up
// or slows down, which absolute rates on a shared host do not; end-to-end
// absolutes are fecimbench's job.
//
//   sweep n=256, sweep n=1024   noisy AnalogCrossbarEngine::evaluate on the
//                               per-cell sweep (V_TH spread, read and ADC
//                               noise) vs reference::analog_evaluate;
//   sweep-tiled n=256, n=1024   the same over n/4-row tiles;
//   bank-sums n=800             noisy evaluate/apply sequences on the
//                               engine's per-run bank sums (replica-noisy's
//                               shape: unit-weight degree-48 graph, |F| = 2
//                               neighbouring flips, ~5 % of sets applied)
//                               vs reference::analog_evaluate on the same
//                               spins (PERF.md invariant 10);
//   ideal n=1024                IdealCrossbarEngine with its local-field
//                               cache vs reference::incremental_vmv;
//   sampler                     NoiseStream::normal_fill vs per-index
//                               normal(i) over the same indices;
//   lifecycle                   a noisy in-situ n=256 run under an armed
//                               one-hour run deadline vs the token-free run
//                               (PERF.md invariant 6);
//   program-cached              an ArrayCache hit vs a cold ProgrammedArray
//                               build of one noisy n=256 array (a single
//                               programming chunk, so single-threaded).
//
// Each side's operation count is calibrated once so that one side of one
// trial runs for at least kMinSideSeconds.  Then kTrials rounds each run
// one trial of every row, alternating which side runs first, and a row
// keeps its per-trial ratios and their median.  Spreading a row's trials
// over the whole run keeps a few seconds of contention on a shared host
// from moving its median.  Every row runs on one thread, so its sides are
// timed in thread CPU time, which leaves out any interval the thread spends
// descheduled.
//
// bank-sums requires every evaluation's e_inc to be bit-identical on both
// sides, lifecycle requires both runs to be bit-identical and
// program-cached requires a hit to return the first build; a failed check
// exits 1 after the rows are written.  FECIM_BENCH_OUT names the JSON file
// to write; tools/bench_gate.py compares it with BENCH_hotpath.json.
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/insitu_annealer.hpp"
#include "core/schedule.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/ideal_engine.hpp"
#include "crossbar/reference_kernels.hpp"
#include "problems/generators.hpp"
#include "problems/maxcut.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace fecim;

constexpr int kTrials = 5;
constexpr double kMinSideSeconds = 0.1;

/// Receives every timed operation's result so no side's work is dead code.
volatile double g_sink = 0.0;
bool g_check_failed = false;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench_hotpath: %s\n", what);
  g_check_failed = true;
}

double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// One side of a row: runs `count` operations, continuing its own running
/// operation index, and returns the seconds they took.
using Side = std::function<double(std::size_t count)>;

/// Wraps `op`, which performs the operation with the given index and
/// returns a value for the sink, into a Side.
template <typename Op>
Side side(Op op) {
  return [op, next = std::size_t{0}](std::size_t count) mutable {
    double sum = 0.0;
    const double start = thread_cpu_seconds();
    for (const std::size_t end = next + count; next < end; ++next)
      sum += op(next);
    const double elapsed = thread_cpu_seconds() - start;
    g_sink = g_sink + sum;
    return elapsed;
  };
}

struct Row {
  std::string name;
  Side optimized;
  Side reference;
};

struct Measured {
  std::string name;
  std::vector<double> trial_ratios;  ///< A/B throughput, one per trial
  double median_ratio = 0.0;
};

/// The one timing helper: calibrates every side, then runs the trials.
std::vector<Measured> measure(std::vector<Row>& rows) {
  const auto calibrate = [](Side& side) {
    std::size_t count = 1;
    while (side(count) < kMinSideSeconds) count *= 2;
    return count;
  };
  std::vector<std::size_t> count_a(rows.size());
  std::vector<std::size_t> count_b(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    count_a[r] = calibrate(rows[r].optimized);
    count_b[r] = calibrate(rows[r].reference);
  }
  std::vector<Measured> measured(rows.size());
  for (int trial = 0; trial < kTrials; ++trial) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      Row& row = rows[r];
      double a = 0.0;
      double b = 0.0;
      if (trial % 2 == 0) {
        a = row.optimized(count_a[r]);
        b = row.reference(count_b[r]);
      } else {
        b = row.reference(count_b[r]);
        a = row.optimized(count_a[r]);
      }
      measured[r].trial_ratios.push_back(
          static_cast<double>(count_a[r]) * b /
          (static_cast<double>(count_b[r]) * a));
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    measured[r].name = rows[r].name;
    measured[r].median_ratio = util::median(measured[r].trial_ratios);
  }
  return measured;
}

core::InSituConfig noisy_config() {
  core::InSituConfig config;  // 8-bit weights, IR drop and ADC noise on
  config.variation.vth_sigma = 0.03;
  config.variation.read_noise_rel = 0.02;
  return config;
}

/// One Max-Cut instance at average degree 24 (Gset-like density, so the
/// per-cell work matches the paper's groups), its crossbar encoding, fixed
/// spins, and a cycled stream of |F| = 2 proposals with their schedule
/// signals: a timed region holds readouts only, and both sides of a row
/// read identical inputs.
struct EngineInputs {
  std::shared_ptr<const ising::IsingModel> model;
  core::InSituConfig config = noisy_config();
  crossbar::QuantizedCouplings quantized;
  crossbar::CrossbarMapping mapping;
  ising::SpinVector spins;
  std::vector<ising::FlipSet> flips;
  std::vector<crossbar::AnnealSignal> signals;

  explicit EngineInputs(std::size_t n)
      : model(std::make_shared<const ising::IsingModel>(
            problems::maxcut_to_ising(problems::random_graph(
                n, 24.0, problems::WeightScheme::kPlusMinusOne, 1000 + n)))),
        quantized(model->couplings(), config.mapping.bits),
        mapping(n, quantized.has_negative() ? 2 : 1, config.mapping) {
    constexpr std::size_t kProposals = 4096;
    auto schedule_config = config.schedule;
    schedule_config.total_iterations = kProposals;
    const core::BgAnnealingSchedule schedule(schedule_config);
    util::Rng rng(7);
    spins = ising::random_spins(n, rng);
    for (std::size_t i = 0; i < kProposals; ++i) {
      flips.push_back(ising::random_flip_set(n, 2, rng));
      const auto point = schedule.at(i);
      signals.push_back({point.factor, point.vbg});
    }
  }

  std::size_t n() const noexcept { return model->num_spins(); }
  std::size_t proposal(std::size_t op) const noexcept {
    return op % flips.size();
  }
};

using Inputs = std::shared_ptr<const EngineInputs>;

Row sweep_row(const Inputs& in, const crossbar::TileShape& tiles) {
  const auto array = std::make_shared<const crossbar::ProgrammedArray>(
      in->quantized, in->mapping, in->config.device, in->config.variation,
      in->config.array_seed, tiles);
  const auto engine = std::make_shared<crossbar::AnalogCrossbarEngine>(
      array, in->config.analog);
  engine->begin_run(42);
  const double i_on_max = array->on_current(array->device_params().vbg_max);
  return {(tiles.monolithic() ? "sweep n=" : "sweep-tiled n=") +
              std::to_string(in->n()),
          side([in, engine](std::size_t op) {
            const std::size_t k = in->proposal(op);
            return engine->evaluate(in->spins, in->flips[k], in->signals[k])
                .e_inc;
          }),
          side([in, array, engine, i_on_max,
                noise = crossbar::ReadoutNoise::for_run(42)](
                   std::size_t op) mutable {
            const std::size_t k = in->proposal(op);
            return crossbar::reference::analog_evaluate(
                       *array, engine->adc(), engine->band_attenuations(),
                       i_on_max, in->spins, in->flips[k], in->signals[k],
                       noise)
                .e_inc;
          })};
}

/// Evaluate/apply sequences on the engine's bank sums, replica-noisy's
/// shape: both sides walk the same cycled list of proposals -- a random
/// spin and one of its neighbours, so the second flip has a cell in the
/// first's column -- and apply the same ~5 % of them to their own spin
/// vectors, so operation i reads the same spins and noise cursor on both
/// sides.  Each side records its e_inc per operation; check_bank_sums()
/// compares the common prefix.
struct BankSumSequence {
  std::shared_ptr<const ising::IsingModel> model;
  std::shared_ptr<const crossbar::ProgrammedArray> array;
  core::InSituConfig config = noisy_config();
  ising::SpinVector start;
  std::vector<ising::FlipSet> flips;
  std::vector<crossbar::AnnealSignal> signals;
  std::vector<std::uint8_t> applied;
  std::vector<double> engine_e_inc, reference_e_inc;

  BankSumSequence() {
    constexpr std::size_t kNodes = 800;
    constexpr std::size_t kProposals = 4096;
    model = std::make_shared<const ising::IsingModel>(problems::maxcut_to_ising(
        problems::gset_like_instance(kNodes, 1800)));
    const crossbar::QuantizedCouplings quantized(model->couplings(),
                                                 config.mapping.bits);
    const crossbar::CrossbarMapping mapping(kNodes, 1, config.mapping);
    array = std::make_shared<const crossbar::ProgrammedArray>(
        quantized, mapping, config.device, config.variation,
        config.array_seed);
    auto schedule_config = config.schedule;
    schedule_config.total_iterations = kProposals;
    const core::BgAnnealingSchedule schedule(schedule_config);
    util::Rng rng(17);
    start = ising::random_spins(kNodes, rng);
    for (std::size_t i = 0; i < kProposals; ++i) {
      const auto first = static_cast<std::uint32_t>(rng.uniform_index(kNodes));
      const auto neighbours = model->couplings().row_cols(first);
      const auto second = neighbours[rng.uniform_index(neighbours.size())];
      flips.push_back({first, second});
      const auto point = schedule.at(i);
      signals.push_back({point.factor, point.vbg});
      applied.push_back(rng.bernoulli(0.05) ? 1 : 0);
    }
  }
  std::size_t proposal(std::size_t op) const noexcept {
    return op % flips.size();
  }
};

Row bank_sums_row(const std::shared_ptr<BankSumSequence>& seq) {
  const auto engine = std::make_shared<crossbar::AnalogCrossbarEngine>(
      seq->array, seq->config.analog);
  engine->enable_incremental_readout();
  check(engine->incremental_readout(),
        "bank-sums: the array does not support the bank sums");
  engine->begin_run(42);
  const double i_on_max =
      seq->array->on_current(seq->array->device_params().vbg_max);
  return {"bank-sums n=800",
          side([seq, engine, spins = seq->start](std::size_t op) mutable {
            const std::size_t k = seq->proposal(op);
            const double e_inc =
                engine->evaluate(spins, seq->flips[k], seq->signals[k]).e_inc;
            if (seq->applied[k] != 0) {
              ising::flip_in_place(spins, seq->flips[k]);
              engine->on_flips_applied(spins, seq->flips[k]);
            }
            seq->engine_e_inc.push_back(e_inc);
            return e_inc;
          }),
          side([seq, engine, i_on_max, spins = seq->start,
                noise = crossbar::ReadoutNoise::for_run(42)](
                   std::size_t op) mutable {
            const std::size_t k = seq->proposal(op);
            const double e_inc =
                crossbar::reference::analog_evaluate(
                    *seq->array, engine->adc(), engine->band_attenuations(),
                    i_on_max, spins, seq->flips[k], seq->signals[k], noise)
                    .e_inc;
            if (seq->applied[k] != 0)
              ising::flip_in_place(spins, seq->flips[k]);
            seq->reference_e_inc.push_back(e_inc);
            return e_inc;
          })};
}

void check_bank_sums(const BankSumSequence& seq) {
  const std::size_t common =
      std::min(seq.engine_e_inc.size(), seq.reference_e_inc.size());
  bool same = common > 0;
  for (std::size_t i = 0; i < common && same; ++i)
    same = std::bit_cast<std::uint64_t>(seq.engine_e_inc[i]) ==
           std::bit_cast<std::uint64_t>(seq.reference_e_inc[i]);
  check(same, "bank-sums: an e_inc differs from the reference");
}

Row ideal_row(const Inputs& in) {
  const auto engine = std::make_shared<crossbar::IdealCrossbarEngine>(
      *in->model, in->mapping, crossbar::Accounting::kInSitu);
  engine->enable_local_field_cache();
  return {"ideal n=" + std::to_string(in->n()),
          side([in, engine](std::size_t op) {
            const std::size_t k = in->proposal(op);
            return engine->evaluate(in->spins, in->flips[k], in->signals[k])
                .raw_vmv;
          }),
          side([in](std::size_t op) {
            return crossbar::reference::incremental_vmv(
                *in->model, in->spins, in->flips[in->proposal(op)]);
          })};
}

Row sampler_row() {
  const util::NoiseStream stream(99, util::stream_site::kReadoutNoise);
  constexpr std::size_t kBatch = 1024;  // draws per operation
  return {"sampler",
          side([stream, draws = std::vector<double>(kBatch)](
                   std::size_t op) mutable {
            stream.normal_fill(op * kBatch, draws);
            return draws.front() + draws.back();
          }),
          side([stream, draws = std::vector<double>(kBatch)](
                   std::size_t op) mutable {
            for (std::size_t i = 0; i < kBatch; ++i)
              draws[i] = stream.normal(op * kBatch + i);
            return draws.front() + draws.back();
          })};
}

Row lifecycle_row(const Inputs& in) {
  auto config = in->config;
  config.iterations = 5000;
  const auto annealer =
      std::make_shared<const core::InSituCimAnnealer>(in->model, config);
  core::CancellationToken armed;
  armed.set_run_deadline(core::CancellationToken::Clock::now() +
                         std::chrono::hours(1));
  constexpr std::uint64_t kSeed = 99;
  const auto plain = annealer->run(kSeed);
  const auto timed = annealer->run(kSeed, armed);
  check(timed.best_spins == plain.best_spins &&
            timed.best_energy == plain.best_energy &&
            timed.final_spins == plain.final_spins &&
            timed.accepted_moves == plain.accepted_moves,
        "lifecycle: an armed deadline changed the run");
  return {"lifecycle",
          side([annealer, armed](std::size_t) {
            return annealer->run(kSeed, armed).best_energy;
          }),
          side([annealer](std::size_t) {
            return annealer->run(kSeed).best_energy;
          })};
}

Row program_cached_row(const Inputs& in) {
  const auto cache = std::make_shared<crossbar::ArrayCache>();
  const auto lookup = [in, cache] {
    const auto& c = in->config;
    return cache->get_or_build(in->quantized, in->mapping, c.device,
                               c.variation, c.array_seed, {});
  };
  const auto first = lookup();
  check(lookup() == first,
        "program-cached: a cache hit did not return the first build");
  return {"program-cached",
          side([lookup](std::size_t) {
            return lookup()->device_params().vbg_max;
          }),
          side([in](std::size_t) {
            const auto& c = in->config;
            const crossbar::ProgrammedArray array(in->quantized, in->mapping,
                                                  c.device, c.variation,
                                                  c.array_seed);
            return array.device_params().vbg_max;
          })};
}

bool write_json(const char* path, const std::vector<Measured>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"fecim-bench-hotpath-v10\",\n");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::fprintf(f, "    {\"name\": \"%s\", \"median_ratio\": %.3f, "
                 "\"trial_ratios\": [",
                 rows[r].name.c_str(), rows[r].median_ratio);
    for (std::size_t t = 0; t < rows[r].trial_ratios.size(); ++t)
      std::fprintf(f, "%s%.3f", t == 0 ? "" : ", ", rows[r].trial_ratios[t]);
    std::fprintf(f, "]}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main() {
  std::printf("hot-path ratios: optimized (A) over reference (B) throughput, "
              "median of %d interleaved trials\n", kTrials);
  const auto small = std::make_shared<const EngineInputs>(256);
  const auto large = std::make_shared<const EngineInputs>(1024);
  std::vector<Row> rows;
  for (const auto& in : {small, large}) {
    rows.push_back(sweep_row(in, {}));
    rows.push_back(sweep_row(in, {in->n() / 4, 0}));
  }
  const auto sequence = std::make_shared<BankSumSequence>();
  rows.push_back(bank_sums_row(sequence));
  rows.push_back(ideal_row(large));
  rows.push_back(sampler_row());
  rows.push_back(lifecycle_row(small));
  rows.push_back(program_cached_row(small));
  const auto measured = measure(rows);
  check_bank_sums(*sequence);

  util::Table table({"row", "median A/B", "trials"});
  for (const auto& row : measured) {
    std::string trials;
    for (const double ratio : row.trial_ratios) {
      char cell[16];
      std::snprintf(cell, sizeof cell, "%s%.2f", trials.empty() ? "" : " ",
                    ratio);
      trials += cell;
    }
    table.row().add(row.name).add(row.median_ratio, 2).add(trials);
  }
  std::printf("%s\n", table.str().c_str());

  if (const char* out = std::getenv("FECIM_BENCH_OUT")) {
    if (!write_json(out, measured)) {
      std::fprintf(stderr, "bench_hotpath: cannot write %s\n", out);
      return 1;
    }
    std::printf("wrote %s\n", out);
  }
  return g_check_failed ? 1 : 0;
}
