// fecim_bench_driver -- workload generator and measured job loop of the fecim
// benchmark (README.md in this directory describes workloads and metrics).
//
//   fecim_bench_driver gen --workload W --seed N --threads T
//       Writes the workload's instance files, its serve job list (jobs.txt)
//       and the equivalent fecim_solve command lines (gate.txt) into the
//       current directory.
//   fecim_bench_driver measure --workload W --seed N --threads T
//       --seconds S --trace 0|1 --out FILE
//       Re-derives the same jobs, runs them pass after pass for S seconds
//       and writes raw timings, spans, counters, result rows and digests to
//       FILE as JSON.  All arithmetic on them lives in metrics.py.
//
// Each job runs the way fecim_solve's solve() runs it: ingest the instance
// file, encode it (make_*_problem), core::make_annealer with the CLI's auto
// budgets, gains and variation, then core::run_campaign.  Untraced passes
// carry only job- and phase-level timers.  Traced passes wrap each layer's
// public call in a span and rebuild the campaign from its public blocks
// (derive_run_seeds -> parallel_for(execute_campaign_run) ->
// reduce_campaign); calls that happen inside a library function are
// replayed standalone and recorded as estimate spans.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/parasitics.hpp"
#include "core/annealer_factory.hpp"
#include "core/runner.hpp"
#include "crossbar/analog_engine.hpp"
#include "crossbar/array_cache.hpp"
#include "crossbar/tiling.hpp"
#include "device/dg_fefet.hpp"
#include "problems/coloring.hpp"
#include "problems/generators.hpp"
#include "problems/gset_io.hpp"
#include "problems/instance_io.hpp"
#include "problems/instances.hpp"
#include "problems/maxcut.hpp"
#include "problems/partition.hpp"
#include "problems/qubo.hpp"
#include "problems/tsp.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace fecim;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct JobSpec {
  std::string family;
  std::string file;  ///< instance file, relative to the working directory
  std::string name;  ///< CSV instance column
  std::size_t size = 0;        ///< generator size knob (nodes, items, ...)
  std::size_t iterations = 0;  ///< 0 = fecim_solve's family auto budget
  std::size_t runs = 8;
  std::size_t threads = 0;
  std::uint64_t seed = 1;
  std::size_t tile_rows = 0;
  std::string algorithm = "insitu";
  std::string init = "random";
};

struct Workload {
  /// true: the jobs form one serve stream sharing an ArrayCache (gated
  /// against fecim_solve --serve); false: each job is its own fecim_solve
  /// --file command line without a cache.
  bool serve = false;
  std::vector<JobSpec> jobs;  ///< in execution order
};

/// One row of the serve-mix composition table: `count` distinct instances
/// of `family` sized across [lo, hi], run with `variant`.
struct MixRow {
  const char* family;
  std::size_t lo, hi;
  const char* variant;  ///< plain | tile | greedy | sb-ballistic | sb-discrete
  std::size_t count;
};

// Fixed composition (72 distinct instances, each served 3x = 216 jobs): a
// quarter tiled, an eighth simulated bifurcation (maxcut-200 and coloring
// only), an eighth greedy warm starts.  The seed draws instance contents,
// campaign seeds and the service order, never the mix or the sizes, so
// every seed offers the same amount and kinds of work.
//
// Job latencies fall in two clusters: partition, QUBO and maxcut-200 jobs
// take 2-6 ms, the rest 20-100 ms.  Short jobs are about 64 % of the mix,
// so the median sits inside the short cluster, where per-job fixed cost
// sets it, and not in the gap, where it would jump between clusters from
// seed to seed.  The p95 sits in the tiled TSP jobs.
constexpr MixRow kServeMix[] = {
    {"maxcut", 200, 200, "sb-ballistic", 3},
    {"maxcut", 200, 200, "sb-discrete", 2},
    {"maxcut", 200, 200, "tile", 4},
    {"maxcut", 800, 800, "tile", 2},
    {"maxcut", 200, 200, "greedy", 2},
    {"maxcut", 800, 800, "greedy", 1},
    {"maxcut", 200, 200, "plain", 6},
    {"maxcut", 800, 800, "plain", 1},
    {"coloring", 16, 32, "sb-ballistic", 2},
    {"coloring", 16, 32, "sb-discrete", 2},
    {"coloring", 16, 32, "tile", 1},
    {"coloring", 16, 32, "plain", 2},
    {"knapsack", 12, 16, "tile", 2},
    {"knapsack", 12, 16, "greedy", 1},
    {"knapsack", 12, 16, "plain", 2},
    {"partition", 24, 40, "tile", 3},
    {"partition", 24, 40, "greedy", 2},
    {"partition", 24, 40, "plain", 12},
    {"tsp", 6, 7, "tile", 2},
    {"tsp", 6, 7, "greedy", 1},
    {"tsp", 6, 7, "plain", 2},
    {"qubo", 64, 128, "tile", 4},
    {"qubo", 64, 128, "greedy", 2},
    {"qubo", 64, 128, "plain", 11},
};
constexpr std::size_t kServeRepeats = 3;

/// Physical tile height of the tiled serve-mix jobs: a few row bands for
/// every family's spin count.
std::size_t mix_tile_rows(const std::string& family, std::size_t size) {
  if (family == "maxcut") return size <= 200 ? 64 : 256;
  if (family == "knapsack") return 8;
  if (family == "coloring" || family == "qubo") return 32;
  return 16;  // partition, tsp
}

const char* file_extension(const std::string& family) {
  if (family == "maxcut") return ".gset";
  if (family == "coloring") return ".col";
  if (family == "knapsack") return ".kp";
  if (family == "tsp") return ".xy";
  if (family == "qubo") return ".qubo";
  return ".txt";
}

std::uint64_t draw_seed(util::Rng& rng) { return rng.uniform_index(999999) + 1; }

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t threads) {
  util::Rng rng(seed ^ 0xfec1bec4a5e5eedULL);
  Workload workload;
  if (name == "gset-setup") {
    // A few distinct Gset-scale graphs per pass: setup (IR-drop ladder,
    // encode, reference) dominates, annealing does not.
    for (std::size_t k = 0; k < 3; ++k) {
      JobSpec job;
      job.family = "maxcut";
      job.size = 10000;
      job.runs = 4;
      job.threads = threads;
      job.seed = draw_seed(rng);
      job.file = "gset-" + std::to_string(k) + ".gset";
      job.name = job.file;
      workload.jobs.push_back(job);
    }
  } else if (name == "replica-noisy") {
    // Many noisy replicas on one G1-class graph: the annealer loop and the
    // noisy engine dominate, setup is a few percent.
    JobSpec job;
    job.family = "maxcut";
    job.size = 800;
    job.iterations = 40000;
    job.runs = 128;
    job.threads = threads;
    job.seed = draw_seed(rng);
    job.file = "g800.gset";
    job.name = job.file;
    workload.jobs.push_back(job);
  } else if (name == "serve-mix") {
    workload.serve = true;
    std::vector<JobSpec> distinct;
    for (const auto& row : kServeMix) {
      for (std::size_t k = 0; k < row.count; ++k) {
        JobSpec job;
        job.family = row.family;
        // Sizes sit at the midpoints of equal slices of the range.
        job.size = row.lo + (row.hi - row.lo + 1) * (2 * k + 1) / (2 * row.count);
        job.threads = threads;
        job.seed = draw_seed(rng);
        const std::string variant = row.variant;
        if (variant == "tile") job.tile_rows = mix_tile_rows(job.family, job.size);
        if (variant == "greedy") job.init = "greedy";
        if (variant.rfind("sb-", 0) == 0) job.algorithm = variant;
        const std::string id = std::to_string(distinct.size());
        job.file = job.family + "-" + id + file_extension(job.family);
        job.name = job.family + std::to_string(job.size) + "-" + id;
        distinct.push_back(job);
      }
    }
    for (std::size_t r = 0; r < kServeRepeats; ++r)
      workload.jobs.insert(workload.jobs.end(), distinct.begin(),
                           distinct.end());
    for (std::size_t i = workload.jobs.size(); i > 1; --i)
      std::swap(workload.jobs[i - 1], workload.jobs[rng.uniform_index(i)]);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

// ---------------------------------------------------------------------------
// Instance files and the equivalent fecim_solve invocations
// ---------------------------------------------------------------------------

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out.precision(17);
  return out;
}

void write_instance(const JobSpec& job) {
  const std::string& family = job.family;
  if (family == "maxcut") {
    problems::write_gset_file(problems::gset_like_instance(job.size, job.seed),
                              job.file);
  } else if (family == "coloring") {
    // fecim_solve's generated coloring graph (average degree 2.5), DIMACS.
    const auto graph = problems::random_graph(
        job.size, 2.5, problems::WeightScheme::kUnit, job.seed);
    auto out = open_out(job.file);
    out << "p edge " << graph.num_vertices() << ' ' << graph.num_edges()
        << '\n';
    for (const auto& edge : graph.edges())
      out << "e " << edge.u + 1 << ' ' << edge.v + 1 << '\n';
  } else if (family == "knapsack") {
    auto out = open_out(job.file);
    problems::write_knapsack(problems::random_knapsack(job.size, job.seed),
                             out);
  } else if (family == "partition") {
    auto out = open_out(job.file);
    for (const double x : problems::random_partition_numbers(job.size, job.seed))
      out << x << '\n';
  } else if (family == "tsp") {
    // Cities uniform in the unit square (random_tsp keeps no coordinates).
    util::Rng rng(job.seed);
    auto out = open_out(job.file);
    out << job.size << '\n';
    for (std::size_t c = 0; c < job.size; ++c) {
      const double x = rng.uniform01();
      const double y = rng.uniform01();
      out << x << ' ' << y << '\n';
    }
  } else {
    problems::write_qubo_file(problems::random_qubo(job.size, 8.0, job.seed),
                              job.file);
  }
}

/// The job's per-job flags in fecim_solve's grammar.
std::string job_flags(const JobSpec& job) {
  std::string flags = "--runs " + std::to_string(job.runs) + " --seed " +
                      std::to_string(job.seed);
  if (job.iterations > 0)
    flags += " --iterations " + std::to_string(job.iterations);
  if (job.tile_rows > 0) flags += " --tile-rows " + std::to_string(job.tile_rows);
  if (job.algorithm != "insitu") flags += " --algorithm " + job.algorithm;
  if (job.init != "random") flags += " --init " + job.init;
  return flags;
}

void generate(const Workload& workload, std::size_t threads) {
  std::vector<std::string> written;
  for (const auto& job : workload.jobs) {
    if (std::find(written.begin(), written.end(), job.file) != written.end())
      continue;
    write_instance(job);
    written.push_back(job.file);
  }
  auto gate = open_out("gate.txt");
  if (workload.serve) {
    auto jobs = open_out("jobs.txt");
    for (const auto& job : workload.jobs)
      jobs << job.family << ' ' << job.file << ' ' << job.name << ' '
           << job_flags(job) << '\n';
    gate << "--serve jobs.txt --threads " << threads << '\n';
  } else {
    for (const auto& job : workload.jobs)
      gate << "--problem " << job.family << " --file " << job.file << ' '
           << job_flags(job) << " --threads " << job.threads << " --csv\n";
  }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One span.  A measured span is an interval on the steady clock; an
/// estimate span carries only a duration, taken from a standalone replay of
/// a call the library makes internally (or from a library statistic), and
/// is anchored under its parent when metrics.py computes self times.
struct Span {
  std::string name;
  int parent = -1;
  bool estimate = false;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Spans of one pass, kept in memory and written out with the results.
/// Only the thread driving the pass records; pool threads hand their times
/// back through disjoint slots.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(const char* name, int parent) {
    spans_.push_back({name, parent, false, since_origin(Clock::now()), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[id].t1 = since_origin(Clock::now()); }
  int interval(const char* name, int parent, Clock::time_point start,
               Clock::time_point stop) {
    spans_.push_back(
        {name, parent, false, since_origin(start), since_origin(stop)});
    return static_cast<int>(spans_.size()) - 1;
  }
  void estimate(const char* name, int parent, double seconds) {
    spans_.push_back({name, parent, true, 0.0, seconds});
  }
  double duration(int id) const { return spans_[id].t1 - spans_[id].t0; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double since_origin(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

template <typename Body>
auto in_span(Tracer* tracer, const char* name, int parent, const Body& body) {
  if (tracer == nullptr) return body();
  const int id = tracer->begin(name, parent);
  auto result = body();
  tracer->end(id);
  return result;
}

/// Run a standalone replay under a "trace.replay" span of the job (so the
/// job's unattributed time excludes it) and return its duration.
template <typename Body>
double replay(Tracer& tracer, int job_span, const Body& body) {
  const int id = tracer.begin("trace.replay", job_span);
  body();
  tracer.end(id);
  return tracer.duration(id);
}

// ---------------------------------------------------------------------------
// One job, as fecim_solve runs it
// ---------------------------------------------------------------------------

/// ingest -> (traced: replay the family reference) -> encode.
template <typename Read, typename Make, typename Reference>
core::ProblemInstance load(const JobSpec& job, Tracer* tracer, int job_span,
                           const Read& read, const Make& make,
                           const Reference& reference) {
  auto input =
      in_span(tracer, "problems.ingest", job_span, [&] { return read(job.file); });
  double reference_s = 0.0;
  if (tracer != nullptr)
    reference_s = replay(*tracer, job_span, [&] { reference(input); });
  const int encode = tracer ? tracer->begin("problems.encode", job_span) : -1;
  core::ProblemInstance problem = make(std::move(input));
  if (tracer != nullptr) {
    tracer->end(encode);
    tracer->estimate("problems.reference", encode, reference_s);
  }
  return problem;
}

/// fecim_solve's make_family_problem for a --file job.
core::ProblemInstance load_problem(const JobSpec& job, Tracer* tracer,
                                   int job_span) {
  const std::string& name = job.name;
  const std::uint64_t seed = job.seed;
  volatile double sink = 0.0;  // keeps replayed references observable
  if (job.family == "maxcut")
    return load(
        job, tracer, job_span,
        [](const std::string& f) { return problems::read_gset_file(f); },
        [&](problems::Graph g) {
          return problems::make_maxcut_problem(name, std::move(g), 48, seed);
        },
        [&](const problems::Graph& g) {
          sink = problems::reference_cut(g, 48, seed);
        });
  if (job.family == "coloring")
    return load(
        job, tracer, job_span,
        [](const std::string& f) {
          return problems::read_dimacs_coloring_file(f);
        },
        [&](problems::Graph g) {
          return problems::make_coloring_problem(name, std::move(g), 0, 2.0);
        },
        [&](const problems::Graph& g) {
          sink = static_cast<double>(problems::greedy_coloring(g).size());
        });
  if (job.family == "knapsack")
    return load(
        job, tracer, job_span,
        [](const std::string& f) { return problems::read_knapsack_file(f); },
        [&](problems::KnapsackInstance k) {
          return problems::make_knapsack_problem(name, std::move(k), 0.0);
        },
        [&](const problems::KnapsackInstance& k) {
          sink = problems::knapsack_optimal_value(k);
        });
  if (job.family == "partition")
    return load(
        job, tracer, job_span,
        [](const std::string& f) { return problems::read_partition_file(f); },
        [&](std::vector<double> numbers) {
          return problems::make_partition_problem(name, std::move(numbers));
        },
        [&](const std::vector<double>& numbers) {
          sink = problems::greedy_partition_imbalance(numbers);
        });
  if (job.family == "tsp")
    return load(
        job, tracer, job_span,
        [](const std::string& f) { return problems::read_tsp_file(f); },
        [&](problems::TspInstance t) {
          return problems::make_tsp_problem(name, std::move(t), 0.0);
        },
        [&](const problems::TspInstance& t) {
          sink = problems::tsp_heuristic(t).length;
        });
  return load(
      job, tracer, job_span,
      [](const std::string& f) { return problems::read_qubo_file(f); },
      [&](problems::QuboInstance q) {
        return problems::make_qubo_problem(name, std::move(q), 24, seed);
      },
      [&](const problems::QuboInstance& q) {
        sink = problems::qubo_reference_value(q.model, q.maximize, 24, seed);
      });
}

// fecim_solve's auto budgets (a divergence shows up as a gate mismatch in
// the CSV iterations column).
std::size_t auto_iterations(const std::string& family, std::size_t spins) {
  if (family == "coloring" || family == "tsp") return 20000;
  if (family == "knapsack") return 30000;
  if (spins <= 800) return 700;
  if (spins <= 1000) return 1000;
  if (spins <= 2000) return 10000;
  return 100000;
}

std::size_t auto_sb_steps(const std::string& family) {
  if (family == "coloring" || family == "tsp" || family == "knapsack")
    return 400;
  return 200;
}

/// Replay of the engine's IR-drop solves for this array: the logical array
/// plus each distinct row-band height, with the engine's on-current and
/// read voltage.  Returns the number of ladder solves.
std::size_t replay_irdrop(std::size_t rows, std::size_t tile_rows,
                          const device::DgFefetParams& device) {
  const double i_on = device::DgFefet::on_current(device, device.vbg_max);
  const circuit::WireTech wire = crossbar::AnalogEngineConfig{}.wire;
  volatile double sink =
      circuit::estimate_line_parasitics(rows, i_on, device.read_vdl, wire)
          .ir_attenuation;
  std::size_t calls = 1;
  const auto bands = crossbar::plan_row_bands(rows, tile_rows);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    if (bands[b].rows() == rows) continue;
    if (b > 0 && bands[b].rows() == bands[b - 1].rows()) continue;
    sink = circuit::estimate_line_parasitics(bands[b].rows(), i_on,
                                             device.read_vdl, wire)
               .ir_attenuation;
    ++calls;
  }
  (void)sink;
  return calls;
}

/// run_campaign rebuilt from its public blocks, with a span per run.
core::CampaignResult traced_campaign(const core::Annealer& annealer,
                                     const core::ProblemInstance& problem,
                                     const core::CampaignConfig& config,
                                     Tracer& tracer, int job_span) {
  const int campaign = tracer.begin("core.campaign", job_span);
  core::validate_campaign(problem, config);
  const auto seeds = core::derive_run_seeds(config.base_seed, config.runs);
  std::vector<core::RunOutcome> outcomes(config.runs);
  std::vector<Clock::time_point> starts(config.runs), stops(config.runs);
  util::parallel_for(
      config.runs,
      [&](std::size_t run) {
        starts[run] = Clock::now();
        outcomes[run] = core::execute_campaign_run(
            annealer, problem, config, run, seeds[run], std::nullopt);
        stops[run] = Clock::now();
      },
      config.threads);
  std::vector<int> run_spans(config.runs);
  for (std::size_t run = 0; run < config.runs; ++run)
    run_spans[run] =
        tracer.interval("core.run", campaign, starts[run], stops[run]);
  const int reduce = tracer.begin("core.reduce", campaign);
  auto result = core::reduce_campaign(problem, config, std::move(outcomes));
  tracer.end(reduce);
  tracer.end(campaign);
  // Each run decodes its best spins inside execute_campaign_run; replay it.
  for (std::size_t run = 0; run < config.runs; ++run) {
    const auto& record = result.per_run[run];
    if (record.status != core::RunStatus::kOk) continue;
    const double seconds = replay(tracer, job_span, [&] {
      volatile double sink = problem.decode(record.best_spins).objective;
      (void)sink;
    });
    tracer.estimate("problems.decode", run_spans[run], seconds);
  }
  return result;
}

struct JobOutcome {
  std::string row;  ///< fecim_solve --csv row
  bool ok = false;  ///< false: the job threw (failed row)
  std::string error;
  double setup_s = 0.0;     ///< ingest + encode + warm start + construct
  double campaign_s = 0.0;  ///< run_campaign
  double latency_s = 0.0;   ///< whole job, row included
  std::size_t runs = 0;
  std::size_t completed = 0;
  double successes = 0.0;
  bool maximize = true;
  double best = std::numeric_limits<double>::quiet_NaN();
  double reference = 0.0;
  double energy_sum = 0.0;  ///< modeled energy summed over completed runs
  double time_sum = 0.0;    ///< modeled latency summed over completed runs
  crossbar::CostLedger ledger{};
  std::size_t irdrop_calls = 0;
  crossbar::ArrayDigest digest{};
};

std::string csv_row(const core::ProblemInstance& problem, const JobSpec& job,
                    std::size_t iterations, std::size_t threads,
                    const core::CampaignResult& result) {
  const double mean = result.objective.empty()
                          ? std::numeric_limits<double>::quiet_NaN()
                          : result.objective.mean();
  char buffer[1024];
  std::snprintf(
      buffer, sizeof buffer,
      "%s,%s,%s,%s,%zu,%zu,%zu,%.6g,%.6g,%.6g,%.3f,%.3f,%.3f,%.6g,%.6g,ok",
      problem.name.c_str(), problem.family.c_str(), "this-work",
      job.algorithm.c_str(), job.runs, iterations, threads,
      result.best_objective(problem.sense), mean, problem.reference_objective,
      result.completed_rate, result.feasible_rate, result.success_rate,
      result.energy.mean(), result.time.mean());
  return buffer;
}

std::string failed_row(const JobSpec& job) {
  return job.name + "," + job.family + ",this-work," + job.algorithm + "," +
         std::to_string(job.runs) +
         ",0,0,nan,nan,nan,0.000,0.000,0.000,nan,nan,failed";
}

/// Bit-exact digest of everything a campaign produced.
crossbar::ArrayDigest result_digest(const core::CampaignResult& result,
                                    const std::string& row) {
  crossbar::DigestBuilder d;
  for (const char c : row) d.add_u64(static_cast<unsigned char>(c));
  for (const auto& record : result.per_run) {
    d.add_u64(record.seed);
    d.add_u64(static_cast<std::uint64_t>(record.status));
    d.add_u64(record.attempt);
    d.add_double(record.best_energy);
    d.add_double(record.solution.objective);
    d.add_bool(record.solution.feasible);
    d.add_double(record.solution.violations);
    d.add_u64(record.best_spins.size());
    for (const auto spin : record.best_spins) d.add_i64(spin);
  }
  for (const auto* stats : {&result.energy, &result.time, &result.objective,
                            &result.violations})
    d.add_double(stats->empty() ? 0.0 : stats->mean());
  const auto& l = result.total_ledger;
  for (const auto v :
       {l.iterations, l.adc_conversions, l.mux_slot_cycles, l.row_drives,
        l.column_drives, l.bg_dac_updates, l.exp_evaluations, l.spin_updates,
        l.crossbar_passes, l.tile_activations, l.partial_sum_updates})
    d.add_u64(v);
  return d.digest();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

JobOutcome run_job(const JobSpec& job,
                   const std::shared_ptr<crossbar::ArrayCache>& cache,
                   Tracer* tracer) {
  JobOutcome out;
  out.runs = job.runs;
  const auto start = Clock::now();
  const int job_span = tracer ? tracer->begin("job", -1) : -1;
  try {
    const auto problem = load_problem(job, tracer, job_span);
    const bool constrained = problem.family == "coloring" ||
                             problem.family == "knapsack" ||
                             problem.family == "tsp";
    const bool sb = job.algorithm != "insitu";
    core::StandardSetup setup;
    setup.iterations =
        job.iterations > 0
            ? job.iterations
            : (sb ? auto_sb_steps(problem.family)
                  : auto_iterations(problem.family, problem.model->num_spins()));
    setup.flips_per_iteration = 2;
    setup.acceptance_gain = constrained ? 4.0 : 16.0;
    if (constrained) setup.variation = {0.01, 0.02, 0.0, 0.0};
    setup.bits = 8;
    setup.tiles = crossbar::TileShape{job.tile_rows, 0};
    setup.array_cache = cache;
    if (job.init == "greedy") {
      if (!problem.warm_start)
        throw std::runtime_error("no warm start for " + problem.family);
      setup.initial_spins =
          in_span(tracer, "problems.warm_start", job_span, [&] {
            return std::make_shared<const ising::SpinVector>(
                problem.warm_start());
          });
    }
    const auto kind = job.algorithm == "sb-ballistic"
                          ? core::AnnealerKind::kSbBallistic
                      : job.algorithm == "sb-discrete"
                          ? core::AnnealerKind::kSbDiscrete
                          : core::AnnealerKind::kThisWork;
    const auto built_before =
        cache ? cache->stats().build_seconds : 0.0;
    const int construct =
        tracer ? tracer->begin("core.construct", job_span) : -1;
    const auto annealer = core::make_annealer(kind, problem.model, setup);
    const auto setup_done = Clock::now();
    if (tracer != nullptr) {
      tracer->end(construct);
      if (cache)
        tracer->estimate("crossbar.program", construct,
                         cache->stats().build_seconds - built_before);
      const double irdrop_s = replay(*tracer, job_span, [&] {
        out.irdrop_calls = replay_irdrop(problem.model->num_spins(),
                                         job.tile_rows, setup.device);
      });
      tracer->estimate("circuit.irdrop", construct, irdrop_s);
    }

    core::CampaignConfig campaign;
    campaign.runs = job.runs;
    campaign.base_seed = job.seed;
    campaign.success_threshold = 0.9;
    campaign.threads = job.threads;
    const auto campaign_start = Clock::now();
    const auto result =
        tracer ? traced_campaign(*annealer, problem, campaign, *tracer, job_span)
               : core::run_campaign(*annealer, problem, campaign);
    out.campaign_s = seconds_between(campaign_start, Clock::now());
    out.row = csv_row(problem, job, setup.iterations,
                      util::resolved_parallel_threads(job.runs, job.threads),
                      result);
    out.latency_s = seconds_between(start, Clock::now());
    // Replays in a traced pass run between construct and campaign; keep
    // them out of the setup phase.
    out.setup_s = seconds_between(start, setup_done);

    out.ok = true;
    out.completed = result.completed;
    out.successes =
        result.success_rate * static_cast<double>(result.completed);
    out.maximize = problem.sense == core::ObjectiveSense::kMaximize;
    out.best = result.best_objective(problem.sense);
    out.reference = problem.reference_objective;
    if (result.completed > 0) {
      out.energy_sum = result.energy.sum();
      out.time_sum = result.time.sum();
    }
    out.ledger = result.total_ledger;
    out.digest = result_digest(result, out.row);
  } catch (const std::exception& error) {
    out.ok = false;
    out.error = error.what();
    out.row = failed_row(job);
    out.latency_s = seconds_between(start, Clock::now());
    crossbar::DigestBuilder d;
    for (const char c : out.row) d.add_u64(static_cast<unsigned char>(c));
    out.digest = d.digest();
  }
  if (tracer != nullptr) tracer->end(job_span);
  return out;
}

// ---------------------------------------------------------------------------
// Passes, calibration, output
// ---------------------------------------------------------------------------

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<JobOutcome> jobs;
  std::vector<Span> spans;
  long long cache_hits = -1;  ///< -1: no cache observed (untraced --file jobs)
  long long cache_misses = -1;
};

Pass run_pass(const Workload& workload, bool traced) {
  Pass pass;
  pass.traced = traced;
  const auto start = Clock::now();
  Tracer tracer(start);
  // A serve stream shares one cache, as --serve does.  Single jobs run
  // without one, as fecim_solve --file does, except that a traced pass
  // gives each job a fresh cache to read its programming time from.
  std::shared_ptr<crossbar::ArrayCache> shared;
  if (workload.serve) shared = std::make_shared<crossbar::ArrayCache>();
  long long hits = 0;
  long long misses = 0;
  for (const auto& job : workload.jobs) {
    auto cache = shared;
    if (!workload.serve && traced)
      cache = std::make_shared<crossbar::ArrayCache>();
    pass.jobs.push_back(run_job(job, cache, traced ? &tracer : nullptr));
    if (cache && !workload.serve) {
      hits += static_cast<long long>(cache->stats().hits);
      misses += static_cast<long long>(cache->stats().misses);
    }
  }
  pass.wall_s = seconds_between(start, Clock::now());
  if (shared) {
    hits = static_cast<long long>(shared->stats().hits);
    misses = static_cast<long long>(shared->stats().misses);
  }
  if (shared || traced) {
    pass.cache_hits = hits;
    pass.cache_misses = misses;
  }
  pass.spans = tracer.spans();
  return pass;
}

/// Fixed integer spin loop on `threads` threads; its wall time drifts when
/// other tenants steal the cores.
double calibration_probe(std::size_t threads) {
  const auto start = Clock::now();
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&total, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      for (std::uint64_t i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      total += x;
    });
  for (auto& worker : workers) worker.join();
  volatile std::uint64_t sink = total.load();  // keeps the loops observable
  (void)sink;
  return seconds_between(start, Clock::now());
}

struct Calibration {
  double single_s = 0.0;  ///< the probe on one thread
  double before_s = 0.0;  ///< on all pool threads, before the first pass
  double after_s = 0.0;   ///< on all pool threads, after the last pass
  double warmup_s = 0.0;  ///< spent waiting for the threads to run in parallel
};

/// On a shared virtual host, idle cores come back slowly: the first second
/// of multi-threaded load can run on what amounts to one core.  Spin until
/// the pool-wide probe runs close to the one-thread probe (or 4 s pass), so
/// the first pass does not pay for the wake-up.
Calibration warm_up(std::size_t threads) {
  Calibration c;
  const auto start = Clock::now();
  c.single_s = calibration_probe(1);
  do {
    c.before_s = calibration_probe(threads);
  } while (c.before_s > 1.3 * c.single_s &&
           seconds_between(start, Clock::now()) < 4.0);
  c.warmup_s = seconds_between(start, Clock::now());
  return c;
}

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}
  void raw(const char* text) { std::fputs(text, out_); }
  void str(const std::string& s) {
    std::fputc('"', out_);
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', out_);
        std::fputc(c, out_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out_, "\\u%04x", c);
      } else {
        std::fputc(c, out_);
      }
    }
    std::fputc('"', out_);
  }
  void key(const char* k) {
    str(k);
    std::fputc(':', out_);
  }
  void num(double v) {
    if (std::isfinite(v))
      std::fprintf(out_, "%.17g", v);
    else
      std::fputs("null", out_);
  }
  void num(long long v) { std::fprintf(out_, "%lld", v); }
  void num(std::uint64_t v) {
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void boolean(bool v) { std::fputs(v ? "true" : "false", out_); }

 private:
  std::FILE* out_;
};

std::string hex(const crossbar::ArrayDigest& d) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buffer;
}

void write_pass(JsonWriter& w, const Pass& pass) {
  w.raw("{");
  w.key("traced");
  w.boolean(pass.traced);
  w.raw(",");
  w.key("wall_s");
  w.num(pass.wall_s);
  w.raw(",");
  w.key("cache_hits");
  w.num(pass.cache_hits);
  w.raw(",");
  w.key("cache_misses");
  w.num(pass.cache_misses);
  w.raw(",\"jobs\":[");
  for (std::size_t i = 0; i < pass.jobs.size(); ++i) {
    const auto& j = pass.jobs[i];
    if (i > 0) w.raw(",");
    w.raw("{");
    w.key("row"); w.str(j.row); w.raw(",");
    w.key("ok"); w.boolean(j.ok); w.raw(",");
    w.key("error"); w.str(j.error); w.raw(",");
    w.key("digest"); w.str(hex(j.digest)); w.raw(",");
    w.key("setup_s"); w.num(j.setup_s); w.raw(",");
    w.key("campaign_s"); w.num(j.campaign_s); w.raw(",");
    w.key("latency_s"); w.num(j.latency_s); w.raw(",");
    w.key("runs"); w.num(static_cast<long long>(j.runs)); w.raw(",");
    w.key("completed"); w.num(static_cast<long long>(j.completed)); w.raw(",");
    w.key("successes"); w.num(j.successes); w.raw(",");
    w.key("maximize"); w.boolean(j.maximize); w.raw(",");
    w.key("best"); w.num(j.best); w.raw(",");
    w.key("reference"); w.num(j.reference); w.raw(",");
    w.key("energy_sum"); w.num(j.energy_sum); w.raw(",");
    w.key("time_sum"); w.num(j.time_sum); w.raw(",");
    w.key("irdrop_calls"); w.num(static_cast<long long>(j.irdrop_calls)); w.raw(",");
    w.key("iterations"); w.num(j.ledger.iterations); w.raw(",");
    w.key("adc_conversions"); w.num(j.ledger.adc_conversions); w.raw(",");
    w.key("tile_activations"); w.num(j.ledger.tile_activations); w.raw(",");
    w.key("partial_sum_updates"); w.num(j.ledger.partial_sum_updates);
    w.raw("}");
  }
  w.raw("],\"spans\":[");
  for (std::size_t i = 0; i < pass.spans.size(); ++i) {
    const auto& s = pass.spans[i];
    if (i > 0) w.raw(",");
    w.raw("[");
    w.str(s.name); w.raw(",");
    w.num(static_cast<long long>(s.parent)); w.raw(",");
    w.boolean(s.estimate); w.raw(",");
    w.num(s.t0); w.raw(",");
    w.num(s.t1);
    w.raw("]");
  }
  w.raw("]}");
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("expected gen|measure");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--threads") args.threads = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out") args.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return args;
}

int measure(const Args& args, const Workload& workload) {
  Calibration calibration = warm_up(args.threads);
  // One untimed job starts the pool threads and touches the allocator, so
  // the first timed pass does not pay for process start-up.
  run_job(workload.jobs.front(), nullptr, nullptr);
  std::vector<Pass> passes;
  const auto start = Clock::now();
  // Untraced passes only, or untraced and traced alternating (so both see
  // the same host conditions), until the time is up.
  for (;;) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(workload, traced));
    const bool done = seconds_between(start, Clock::now()) >= args.seconds;
    if (done && (!args.trace || passes.size() >= 2)) break;
  }
  calibration.after_s = calibration_probe(args.threads);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + args.out);
  JsonWriter w(out);
  w.raw("{\"fingerprint\":{");
  w.key("nproc");
  w.num(static_cast<long long>(std::thread::hardware_concurrency()));
  w.raw(",");
  w.key("threads"); w.num(static_cast<long long>(args.threads)); w.raw(",");
  w.key("compiler"); w.str(FECIM_BENCH_COMPILER); w.raw(",");
  w.key("build_type"); w.str(FECIM_BENCH_BUILD_TYPE); w.raw(",");
#ifdef FECIM_DISABLE_CONTRACTS
  w.key("contracts"); w.boolean(false); w.raw(",");
#else
  w.key("contracts"); w.boolean(true); w.raw(",");
#endif
  w.key("march_native"); w.boolean(FECIM_BENCH_NATIVE != 0);
  w.raw("},\"calibration\":{");
  w.key("single_s"); w.num(calibration.single_s); w.raw(",");
  w.key("before_s"); w.num(calibration.before_s); w.raw(",");
  w.key("after_s"); w.num(calibration.after_s); w.raw(",");
  w.key("warmup_s"); w.num(calibration.warmup_s);
  w.raw("},");
  w.key("peak_rss_mb");
  w.num(static_cast<double>(usage.ru_maxrss) / 1024.0);
  w.raw(",\"passes\":[");
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) w.raw(",");
    write_pass(w, passes[i]);
  }
  w.raw("]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.seed, args.threads);
    if (args.mode == "gen") {
      generate(workload, args.threads);
      return 0;
    }
    if (args.mode == "measure" && !args.out.empty())
      return measure(args, workload);
    throw std::invalid_argument("expected gen, or measure with --out");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fecim_bench_driver: %s\n", error.what());
    return 1;
  }
}
