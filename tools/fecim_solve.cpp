// fecim_solve -- command-line combinatorial-optimization solver on the
// ferroelectric CiM in-situ annealer.
//
// usage:
//   fecim_solve [options] [instance-file]
//
// One solver pipeline for all six COP families: the chosen family is
// encoded into an annealer-ready Ising model (problems/instances.hpp), the
// campaign runner executes --runs independent replicas in parallel across
// --threads workers, and the report shows the decoded domain objective plus
// feasibility.  Every family loads external benchmark instances via
// --file (or the positional instance-file); without a file a seeded
// generator builds the instance.  --batch runs a whole manifest of
// instances through one process (and one persistent thread pool);
// --serve keeps the process alive and streams result rows per job line.
//
// Every mode runs one job loop (docs/serving.md).  A source yields the
// jobs -- the command line's one instance, a --batch manifest parsed in
// full before its first job runs, or a --serve stream parsed line by
// line -- and a sink takes each result: CSV rows, the human report, or
// the batch table.  Manifest and stream lines share one job grammar,
//     <family> <path> [name] [--flag value ...]
// where <path> of "-" means "generate the instance from the seed", and the
// trailing overrides rebind any shared per-campaign flag (--iterations,
// --runs, --seed, --annealer, --tile-rows, family knobs, ...) for that job
// only.  All jobs in a process share the persistent worker pool AND the
// digest-keyed programmed-array cache (crossbar/array_cache.hpp): jobs
// that resolve to the same quantized couplings + mapping + device +
// variation seed + tile shape reuse one programmed array, and the final
// stderr line reports the cache's built/hit counters.  A job that fails
// -- its line, its instance, or a campaign that completes no run -- gets a
// stderr diagnostic and, when it has no result, one failed row; the other
// jobs still run, and the process exits 1.
//
// options:
//   --problem F          maxcut|coloring|knapsack|partition|tsp|qubo [maxcut]
//   --file PATH          load the instance from a file (format per family:
//                        maxcut Gset, coloring DIMACS .col, knapsack/
//                        partition instance_io.hpp formats, tsp coordinate
//                        list or TSPLIB EUC_2D, qubo QPLIB-subset triplets)
//   --batch MANIFEST     run every job line of the manifest as its own
//                        campaign (paths resolve relative to the manifest;
//                        one row per instance)
//   --serve JOBS         persistent serve loop: read job lines from the
//                        JOBS file ("-" = stdin), execute each as it
//                        arrives, stream one CSV row per job (implies
//                        --csv; rows are flushed for pipeline consumers)
//   --annealer this-work|this-work-ideal|cim-fpga|cim-asic|mesa
//   --algorithm A        solver dynamics: insitu (Metropolis-style annealing,
//                        the --annealer kinds) or sb-ballistic/sb-discrete
//                        (simulated bifurcation on the same analog
//                        crossbar; --iterations then counts SB steps, each
//                        costing one field readout per spin)       [insitu]
//   --init random|greedy warm start: greedy = the family's constructive
//                        heuristic (greedy cut for maxcut, DSatur for
//                        coloring) seeds every run              [random]
//   --sb-dt X            SB integrator time step               [0.5]
//   --sb-a0 X            SB final pump amplitude               [1.0]
//   --sb-c0 X            SB coupling strength (0 = auto-calibrated
//                        0.5 / (sigma sqrt(n)))                [0]
//   --iterations N       annealing iterations per run        [auto by family]
//   --runs N             independent Monte-Carlo runs (>= 1) [10]
//   --threads N          parallel replica workers (0 = all cores)  [0]
//   --flips N            spins flipped per iteration (|F|)   [2]
//   --gain X             acceptance comparator gain          [auto by family]
//   --bits N             weight quantization bits            [8]
//   --tile-rows N        max physical rows per crossbar tile
//                        (0 = monolithic array)              [0]
//   --tile-cols N        max physical columns per tile       [0]
//   --seed N             instance/run base seed              [1]
//   --csv                emit CSV rows instead of the report
// run lifecycle (docs/robustness.md):
//   --success-threshold T success = within (1-T) of reference, T in (0,1] [0.9]
//   --run-timeout S      per-run wall-clock deadline in seconds (0 = none);
//                        an expired run is recorded timed-out   [0]
//   --time-limit S       campaign wall-clock limit in seconds (0 = none);
//                        runs past it are recorded cancelled    [0]
//   --retries N          extra attempts for a failed run, reseeded
//                        deterministically via (seed, attempt)  [0]
//   --journal PATH       append-only per-run checkpoint journal
//   --resume             skip runs already in --journal (bit-identical
//                        campaign result)
//   --inject-fail LIST   test hook: comma-separated run indices that throw
//   --inject-hang LIST   test hook: run indices whose deadline pre-expires
// family-specific (generated instances only):
//   --nodes N            maxcut/coloring graph size, qubo variables
//                        [800 / 16 / 64]
//   --degree X           coloring/qubo average degree        [2.5 / 8]
//   --colors K           coloring palette (0 = greedy bound) [0]
//   --items N            knapsack item count                 [12]
//   --capacity W         knapsack capacity (0 = 40 % of total weight) [0]
//   --numbers N          partition set size                  [24]
//   --cities N           tsp city count                      [6]
//   --penalty A          constraint penalty; 0 = auto-tune for knapsack
//                        (max value + 1) and tsp (n * max distance),
//                        fixed default 2 for coloring        [0]
//
// A malformed or out-of-range flag exits 2 naming the flag; a malformed
// manifest, an instance that fails to load or a failed job exits 1 with a
// diagnostic (file errors name the offending line) instead of silently
// parsing to zero or dying on a contract check.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/annealer_factory.hpp"
#include "core/runner.hpp"
#include "crossbar/array_cache.hpp"
#include "problems/generators.hpp"
#include "problems/gset_io.hpp"
#include "problems/instance_io.hpp"
#include "problems/instances.hpp"
#include "problems/qubo.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace fecim;

namespace {

struct Options {
  std::string file;
  std::string batch;
  std::string serve;  ///< jobs file for the serve loop, "-" = stdin
  std::string problem = "maxcut";
  std::string annealer = "this-work";
  std::string algorithm = "insitu";  ///< insitu | sb-ballistic | sb-discrete
  std::string init = "random";       ///< random | greedy warm start
  double sb_dt = 0.5;   ///< SB integrator time step
  double sb_a0 = 1.0;   ///< SB final pump amplitude
  double sb_c0 = 0.0;   ///< SB coupling strength, 0 = auto 0.5/(sigma sqrt(n))
  std::size_t iterations = 0;  // 0 = auto
  std::size_t runs = 10;
  std::size_t threads = 0;  // 0 = util::worker_threads()
  std::size_t flips = 2;
  double gain = 0.0;  // 0 = auto (16 unconstrained, 4 constrained)
  std::size_t bits = 8;
  std::size_t tile_rows = 0;  // 0 = monolithic
  std::size_t tile_cols = 0;
  std::uint64_t seed = 1;
  bool csv = false;
  // Run lifecycle (docs/robustness.md).
  double success_threshold = 0.9;
  double run_timeout = 0.0;  // seconds, 0 = none
  double time_limit = 0.0;   // seconds, 0 = none
  std::size_t retries = 0;
  std::string journal;
  bool resume = false;
  std::vector<std::size_t> inject_fail;
  std::vector<std::size_t> inject_hang;
  // Family-specific instance knobs.
  std::size_t nodes = 0;  // 0 = family default
  double degree = 0.0;    // 0 = family default (2.5 coloring, 8 qubo)
  std::size_t colors = 0;  // 0 = greedy palette
  std::size_t items = 12;
  double capacity = 0.0;  // 0 = auto
  std::size_t numbers = 24;
  std::size_t cities = 6;
  double penalty = 0.0;  // 0 = auto
};

/// One campaign: a command line's instance, or one manifest/serve line of
/// the job grammar.
struct Job {
  std::string family;
  std::string path;  ///< empty = generate from the (per-job) seed
  std::string name;
  Options options;  ///< process options + per-job overrides
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [instance-file]\n"
      "  --problem F       maxcut|coloring|knapsack|partition|tsp|qubo"
      " [maxcut]\n"
      "  --file PATH       load the instance from a file (any family)\n"
      "  --batch MANIFEST  run every '<family> <path> [name] [--flag value"
      " ...]' manifest line\n"
      "  --serve JOBS      persistent serve loop over the same job grammar"
      " ('-' = stdin; implies --csv)\n"
      "  --annealer KIND   this-work | this-work-ideal | cim-fpga | cim-asic"
      " | mesa\n"
      "  --algorithm A     insitu | sb-ballistic | sb-discrete [insitu]\n"
      "  --init MODE       random | greedy (constructive warm start)"
      " [random]\n"
      "  --sb-dt X  --sb-a0 X  --sb-c0 X   SB integrator knobs"
      " (c0 0 = auto)\n"
      "  --iterations N  --runs N  --threads N  --flips N\n"
      "  --gain X  --bits N  --tile-rows N  --tile-cols N  --seed N  --csv\n"
      "run lifecycle: --success-threshold T --run-timeout S --time-limit S\n"
      "  --retries N --journal PATH --resume --inject-fail L --inject-hang L\n"
      "family-specific: --nodes N --degree X --colors K --items N\n"
      "  --capacity W --numbers N --cities N --penalty A\n",
      argv0);
  std::exit(2);
}

/// Reject the strtoull-parses-garbage-to-0 failure mode: the whole token
/// must be a base-10 non-negative integer.  The value-level cores return
/// false instead of dying so both diagnostic styles -- exit(2) naming the
/// flag on the command line, a thrown line-numbered contract_error inside
/// a job line -- share one grammar.
bool parse_size_value(const char* text, std::size_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value =
      (*text != '\0' && *text != '-' && *text != '+')
          ? std::strtoull(text, &end, 10)
          : 0;
  if (end == nullptr || end == text || *end != '\0' || errno == ERANGE)
    return false;
  out = static_cast<std::size_t>(value);
  return true;
}

/// Reject non-numeric text (end-pointer check), 'nan'/'inf' (a NaN capacity
/// would sail past every range check downstream -- NaN compares false --
/// into undefined casts), and out-of-range magnitudes: every double flag
/// has a physically sensible [lo, hi] window, and a value outside it is a
/// typo that deserves a diagnostic naming the flag, not a silent campaign
/// with an absurd penalty.
bool parse_double_value(const char* text, double lo, double hi, double& out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) || value < lo || value > hi)
    return false;
  out = value;
  return true;
}

std::string double_window(double lo, double hi) {
  char buffer[80];
  std::snprintf(buffer, sizeof buffer, "a finite number in [%g, %g]", lo, hi);
  return buffer;
}

std::size_t parse_size(const char* flag, const char* text) {
  std::size_t value = 0;
  if (!parse_size_value(text, value)) {
    std::fprintf(stderr,
                 "fecim_solve: invalid value '%s' for %s "
                 "(expected a non-negative integer)\n",
                 text, flag);
    std::exit(2);
  }
  return value;
}

bool is_known_annealer(const std::string& name) {
  return name == "this-work" || name == "this-work-ideal" ||
         name == "cim-fpga" || name == "cim-asic" || name == "mesa";
}

/// The per-campaign flags shared by the command line, --batch manifests,
/// and --serve job lines (one table, so a flag added here works in all
/// three).  `next()` yields the flag's value token exactly once when the
/// flag matches; `fail(flag, text, expected)` reports a malformed value in
/// whatever style the caller owes its user (exit(2) or a line-numbered
/// throw) and does not return.  Returns false for flags outside the table
/// (mode selectors, lifecycle test hooks) so the caller can layer its own.
template <typename GetValue, typename Fail>
bool apply_value_flag(Options& options, const std::string& flag,
                      const GetValue& next, const Fail& fail) {
  auto size_arg = [&]() {
    const char* text = next();
    std::size_t value = 0;
    if (!parse_size_value(text, value))
      fail(flag, text, "a non-negative integer");
    return value;
  };
  auto double_arg = [&](double lo, double hi) {
    const char* text = next();
    double value = 0.0;
    if (!parse_double_value(text, lo, hi, value))
      fail(flag, text, double_window(lo, hi));
    return value;
  };
  if (flag == "--annealer") {
    const char* text = next();
    if (!is_known_annealer(text))
      fail(flag, text, "this-work|this-work-ideal|cim-fpga|cim-asic|mesa");
    options.annealer = text;
  }
  else if (flag == "--algorithm") {
    const char* text = next();
    const std::string value(text);
    if (value != "insitu" && value != "sb-ballistic" &&
        value != "sb-discrete")
      fail(flag, text, "insitu|sb-ballistic|sb-discrete");
    options.algorithm = value;
  }
  else if (flag == "--init") {
    const char* text = next();
    const std::string value(text);
    if (value != "random" && value != "greedy")
      fail(flag, text, "random|greedy");
    options.init = value;
  }
  else if (flag == "--sb-dt") options.sb_dt = double_arg(1e-6, 1e3);
  else if (flag == "--sb-a0") options.sb_a0 = double_arg(1e-6, 1e6);
  else if (flag == "--sb-c0") options.sb_c0 = double_arg(0.0, 1e9);
  else if (flag == "--iterations") options.iterations = size_arg();
  else if (flag == "--runs") options.runs = size_arg();
  else if (flag == "--threads") options.threads = size_arg();
  else if (flag == "--flips") options.flips = size_arg();
  else if (flag == "--gain") options.gain = double_arg(0.0, 1e6);
  else if (flag == "--bits") options.bits = size_arg();
  else if (flag == "--tile-rows") options.tile_rows = size_arg();
  else if (flag == "--tile-cols") options.tile_cols = size_arg();
  else if (flag == "--seed") options.seed = size_arg();
  else if (flag == "--success-threshold")
    options.success_threshold = double_arg(1e-9, 1.0);
  else if (flag == "--run-timeout")
    options.run_timeout = double_arg(0.0, 1e9);
  else if (flag == "--time-limit")
    options.time_limit = double_arg(0.0, 1e9);
  else if (flag == "--retries") options.retries = size_arg();
  else if (flag == "--nodes") options.nodes = size_arg();
  else if (flag == "--degree") options.degree = double_arg(0.0, 1e6);
  else if (flag == "--colors") options.colors = size_arg();
  else if (flag == "--items") options.items = size_arg();
  else if (flag == "--capacity") options.capacity = double_arg(0.0, 1e15);
  else if (flag == "--numbers") options.numbers = size_arg();
  else if (flag == "--cities") options.cities = size_arg();
  else if (flag == "--penalty") options.penalty = double_arg(0.0, 1e12);
  else return false;
  return true;
}

/// Comma-separated non-negative run indices, e.g. "0,2,5".
std::vector<std::size_t> parse_run_list(const char* flag, const char* text) {
  std::vector<std::size_t> runs;
  const std::string list(text);
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = list.find(',', pos);
    const std::string token =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    runs.push_back(parse_size(flag, token.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return runs;
}

bool is_known_family(const std::string& family) {
  return family == "maxcut" || family == "coloring" ||
         family == "knapsack" || family == "partition" || family == "tsp" ||
         family == "qubo";
}

/// --nodes, or the family's default size: maxcut 800, coloring 16, qubo 64.
std::size_t nodes_of(const Job& job) {
  if (job.options.nodes > 0) return job.options.nodes;
  return job.family == "maxcut" ? 800 : job.family == "coloring" ? 16 : 64;
}

/// --degree, or the family's default: coloring 2.5, qubo 8.
double degree_of(const Job& job) {
  if (job.options.degree > 0.0) return job.options.degree;
  return job.family == "coloring" ? 2.5 : 8.0;
}

/// A job's instance name: its own, else its path, else the generated
/// instance's; "-" when its line failed before naming a known family.
std::string job_name(const Job& job) {
  if (!job.name.empty()) return job.name;
  if (!job.path.empty()) return job.path;
  const Options& options = job.options;
  if (job.family == "maxcut")
    return "generated-" + std::to_string(nodes_of(job));
  if (job.family == "knapsack")
    return "knapsack-" + std::to_string(options.items);
  if (job.family == "partition")
    return "partition-" + std::to_string(options.numbers);
  if (job.family == "tsp") return "tsp-" + std::to_string(options.cities);
  if (job.family == "coloring" || job.family == "qubo")
    return job.family + "-" + std::to_string(nodes_of(job));
  return "-";
}

/// Why `job` cannot run as given, naming the flag to change; empty when it
/// can.  The command line exits 2 with it and a job line fails with it at
/// <file>:<line>, both before any instance is read or generated, so no
/// such job stops on a library precondition instead.
std::string job_error(const Job& job) {
  const Options& options = job.options;
  // 0 runs would divide 0/0 into feasible_rate and report a campaign that
  // never ran.
  if (options.runs == 0) return "--runs must be at least 1";
  if (options.flips == 0) return "--flips must be at least 1";
  if (options.bits < 1 || options.bits > 16)
    return "--bits " + std::to_string(options.bits) + " is outside 1..16";
  if (!job.path.empty()) return {};
  const std::string& family = job.family;
  if (family == "knapsack" && options.items == 0)
    return "--items 0 is too few for a generated knapsack (at least 1 item)";
  if (family == "partition" && options.numbers < 2)
    return "--numbers " + std::to_string(options.numbers) +
           " is too few for a generated partition (at least 2 numbers)";
  if (family == "tsp" && options.cities < 3)
    return "--cities " + std::to_string(options.cities) +
           " is too few for a generated tsp (at least 3 cities)";
  const auto text = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    return std::string(buf);
  };
  const std::size_t nodes = nodes_of(job);
  if (family == "maxcut") {
    const double degree = problems::gset_like_degree(nodes);
    if (degree <= 0.0 || problems::random_graph_fits(nodes, degree)) return {};
    std::size_t needed = 2;
    while (!problems::random_graph_fits(needed, degree)) ++needed;
    return "--nodes " + std::to_string(nodes) +
           " is too small for a generated maxcut graph (average degree " +
           text(degree) + " needs at least " + std::to_string(needed) +
           " nodes)";
  }
  if (family == "coloring") {
    const double degree = degree_of(job);
    if (problems::random_graph_fits(nodes, degree)) return {};
    if (nodes < 2)
      return "--nodes " + std::to_string(nodes) +
             " is too small for a generated coloring graph (at least 2 "
             "nodes)";
    return "--degree " + text(degree) + " does not fit --nodes " +
           std::to_string(nodes) + ": a generated coloring graph on " +
           std::to_string(nodes) + " nodes has average degree at most " +
           std::to_string(nodes - 1);
  }
  return {};
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fecim_solve: missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto cli_fail = [](const std::string& flag, const char* text,
                       const std::string& expected) {
      std::fprintf(stderr,
                   "fecim_solve: invalid value '%s' for %s (expected %s)\n",
                   text, flag.c_str(), expected.c_str());
      std::exit(2);
    };
    // Shared per-campaign flags first (one table with --batch/--serve job
    // overrides), then the CLI-only mode selectors and lifecycle hooks.
    if (apply_value_flag(options, arg, [&] { return next(arg.c_str()); },
                         cli_fail)) continue;
    if (arg == "--problem") {
      options.problem = next("--problem");
      if (!is_known_family(options.problem))
        cli_fail(arg, options.problem.c_str(),
                 "maxcut|coloring|knapsack|partition|tsp|qubo");
    }
    else if (arg == "--file") options.file = next("--file");
    else if (arg == "--batch") options.batch = next("--batch");
    else if (arg == "--serve") options.serve = next("--serve");
    else if (arg == "--csv") options.csv = true;
    else if (arg == "--journal") options.journal = next("--journal");
    else if (arg == "--resume") options.resume = true;
    else if (arg == "--inject-fail")
      options.inject_fail = parse_run_list("--inject-fail",
                                           next("--inject-fail"));
    else if (arg == "--inject-hang")
      options.inject_hang = parse_run_list("--inject-hang",
                                           next("--inject-hang"));
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') usage(argv[0]);
    else options.file = arg;
  }
  if ((!options.batch.empty()) + (!options.serve.empty()) +
          (!options.file.empty()) >
      1) {
    std::fprintf(stderr,
                 "fecim_solve: --batch, --serve and --file are mutually "
                 "exclusive\n");
    std::exit(2);
  }
  if (options.resume && options.journal.empty()) {
    std::fprintf(stderr, "fecim_solve: --resume requires --journal\n");
    std::exit(2);
  }
  // The serve loop streams rows to pipeline consumers; the human-readable
  // report is meaningless mid-stream, so --serve always emits CSV.
  if (!options.serve.empty()) options.csv = true;
  if ((!options.batch.empty() || !options.serve.empty()) &&
      (!options.journal.empty() || !options.inject_fail.empty() ||
       !options.inject_hang.empty())) {
    // A journal checkpoints one campaign and injection indexes one
    // campaign's runs; neither is meaningful across a manifest of
    // campaigns.
    std::fprintf(stderr,
                 "fecim_solve: --journal/--inject-* do not combine with "
                 "--batch/--serve\n");
    std::exit(2);
  }
  // The command line's own job; manifest and serve lines are checked by
  // the same validator as they parse.
  if (options.batch.empty() && options.serve.empty()) {
    const auto error =
        job_error(Job{options.problem, options.file, {}, options});
    if (!error.empty()) {
      std::fprintf(stderr, "fecim_solve: %s\n", error.c_str());
      std::exit(2);
    }
  }
  for (const auto run : options.inject_fail)
    if (run >= options.runs) {
      std::fprintf(stderr,
                   "fecim_solve: --inject-fail index %zu out of range "
                   "(runs = %zu)\n", run, options.runs);
      std::exit(2);
    }
  for (const auto run : options.inject_hang)
    if (run >= options.runs) {
      std::fprintf(stderr,
                   "fecim_solve: --inject-hang index %zu out of range "
                   "(runs = %zu)\n", run, options.runs);
      std::exit(2);
    }
  return options;
}

core::AnnealerKind kind_from_name(const std::string& name) {
  if (name == "this-work") return core::AnnealerKind::kThisWork;
  if (name == "this-work-ideal") return core::AnnealerKind::kThisWorkIdeal;
  if (name == "cim-fpga") return core::AnnealerKind::kCimFpga;
  if (name == "cim-asic") return core::AnnealerKind::kCimAsic;
  if (name == "mesa") return core::AnnealerKind::kMesa;
  std::fprintf(stderr, "unknown annealer '%s'\n", name.c_str());
  std::exit(2);
}

/// Build a job's instance, from its file when given (any family) or the
/// seeded generators otherwise.
core::ProblemInstance make_family_problem(const Job& job) {
  const Options& options = job.options;
  const std::string& file = job.path;
  const auto seed = options.seed;
  const std::string name = job_name(job);
  if (job.family == "maxcut") {
    problems::Graph graph =
        file.empty() ? problems::gset_like_instance(nodes_of(job), seed)
                     : problems::read_gset_file(file);
    return problems::make_maxcut_problem(name, std::move(graph), 48, seed);
  }
  if (job.family == "coloring") {
    problems::Graph graph =
        file.empty()
            ? problems::random_graph(nodes_of(job), degree_of(job),
                                     problems::WeightScheme::kUnit, seed)
            : problems::read_dimacs_coloring_file(file);
    return problems::make_coloring_problem(
        name, std::move(graph), options.colors,
        options.penalty > 0.0 ? options.penalty : 2.0);
  }
  if (job.family == "knapsack") {
    auto instance =
        file.empty()
            ? problems::random_knapsack(options.items, seed, options.capacity)
            : problems::read_knapsack_file(file);
    return problems::make_knapsack_problem(name, std::move(instance),
                                           options.penalty);
  }
  if (job.family == "partition") {
    auto numbers =
        file.empty()
            ? problems::random_partition_numbers(options.numbers, seed)
            : problems::read_partition_file(file);
    return problems::make_partition_problem(name, std::move(numbers));
  }
  if (job.family == "tsp") {
    auto instance = file.empty() ? problems::random_tsp(options.cities, seed)
                                 : problems::read_tsp_file(file);
    return problems::make_tsp_problem(name, std::move(instance),
                                      options.penalty);
  }
  if (job.family == "qubo") {
    auto instance =
        file.empty()
            ? problems::random_qubo(nodes_of(job), degree_of(job), seed)
            : problems::read_qubo_file(file);
    return problems::make_qubo_problem(name, std::move(instance), 24, seed);
  }
  throw contract_error("unknown problem family '" + job.family + "'");
}

std::size_t auto_iterations(const std::string& family,
                            std::size_t num_spins) {
  // Constraint-encoded families (one-hot / slack penalties) need a longer
  // budget than the paper's Max-Cut size classes at equal spin count.
  if (family == "coloring" || family == "tsp") return 20000;
  if (family == "knapsack") return 30000;
  // The paper's Max-Cut budgets by size class (partition and generic QUBO
  // ride along).
  if (num_spins <= 800) return 700;
  if (num_spins <= 1000) return 1000;
  if (num_spins <= 2000) return 10000;
  return 100000;
}

/// SB budgets count steps, and one SB step performs a full field readout
/// (one ADC-sensed evaluation per spin) -- roughly n in-situ iterations of
/// hardware work -- so the auto budget is two orders of magnitude smaller.
std::size_t auto_sb_steps(const std::string& family) {
  if (family == "coloring" || family == "tsp" || family == "knapsack")
    return 400;
  return 200;
}

struct SolveOutcome {
  core::CampaignResult result;
  core::StandardSetup setup;
  core::AnnealerKind kind = core::AnnealerKind::kThisWork;
  std::size_t threads = 0;  ///< resolved worker count
};

SolveOutcome solve(const core::ProblemInstance& problem,
                   const Options& options,
                   const std::shared_ptr<crossbar::ArrayCache>& cache) {
  const bool constrained =
      problem.family == "coloring" || problem.family == "knapsack" ||
      problem.family == "tsp";

  const bool sb = options.algorithm != "insitu";

  SolveOutcome outcome;
  outcome.setup.iterations =
      options.iterations > 0
          ? options.iterations
          : (sb ? auto_sb_steps(problem.family)
                : auto_iterations(problem.family,
                                  problem.model->num_spins()));
  outcome.setup.flips_per_iteration = options.flips;
  // Constraint landscapes prefer a softer comparator and tighter
  // program-verify variation so penalty weights survive programming (see
  // docs/problems.md).
  outcome.setup.acceptance_gain =
      options.gain > 0.0 ? options.gain : (constrained ? 4.0 : 16.0);
  if (constrained) outcome.setup.variation = {0.01, 0.02, 0.0, 0.0};
  outcome.setup.bits = static_cast<int>(options.bits);
  // Tile-partitioned execution: bound the physical tile (0 = monolithic);
  // the engines sweep the tile grid and accumulate partial sums digitally.
  outcome.setup.tiles = crossbar::TileShape{options.tile_rows,
                                            options.tile_cols};
  // Every job of a process shares one digest-keyed programmed-array cache:
  // jobs with identical array-defining inputs reuse one ProgrammedArray.
  outcome.setup.array_cache = cache;
  outcome.setup.sb_dt = options.sb_dt;
  outcome.setup.sb_a0 = options.sb_a0;
  outcome.setup.sb_c0 = options.sb_c0;
  if (options.init == "greedy") {
    if (!problem.warm_start)
      throw contract_error("--init greedy: no constructive warm start for "
                           "family '" + problem.family + "'");
    outcome.setup.initial_spins =
        std::make_shared<const ising::SpinVector>(problem.warm_start());
  }

  // --algorithm selects the solver dynamics; --annealer picks the engine
  // flavor within the in-situ family (SB always drives the analog array).
  outcome.kind = options.algorithm == "sb-ballistic"
                     ? core::AnnealerKind::kSbBallistic
                 : options.algorithm == "sb-discrete"
                     ? core::AnnealerKind::kSbDiscrete
                     : kind_from_name(options.annealer);
  // An in-situ kind flips --flips distinct spins per iteration; only the
  // encoded model knows how many it has.
  if ((outcome.kind == core::AnnealerKind::kThisWork ||
       outcome.kind == core::AnnealerKind::kThisWorkIdeal) &&
      options.flips > problem.model->num_flippable())
    throw contract_error("--flips " + std::to_string(options.flips) +
                         " exceeds the " +
                         std::to_string(problem.model->num_flippable()) +
                         " flippable spins of " + problem.name);
  const auto annealer =
      core::make_annealer(outcome.kind, problem.model, outcome.setup);

  core::CampaignConfig campaign;
  campaign.runs = options.runs;
  campaign.base_seed = options.seed;
  campaign.success_threshold = options.success_threshold;
  campaign.threads = options.threads;
  campaign.run_timeout_seconds = options.run_timeout;
  campaign.time_limit_seconds = options.time_limit;
  campaign.retries = options.retries;
  campaign.journal_path = options.journal;
  campaign.resume = options.resume;
  campaign.inject.fail_runs = options.inject_fail;
  campaign.inject.hang_runs = options.inject_hang;

  outcome.result = core::run_campaign(*annealer, problem, campaign);
  // Report the resolved worker count (threads=0 means "all cores"), never
  // the raw config value.
  outcome.threads =
      util::resolved_parallel_threads(options.runs, options.threads);
  return outcome;
}

/// best_objective is NaN with zero feasible runs; mirror that for the mean
/// so the CSV never shows a literal 0 that would read as a perfect
/// imbalance or an empty packing.
double safe_mean_objective(const core::CampaignResult& result) {
  return result.objective.empty()
             ? std::numeric_limits<double>::quiet_NaN()
             : result.objective.mean();
}

void print_csv_header() {
  std::printf(
      "instance,family,annealer,algorithm,runs,iterations,threads,"
      "best_objective,mean_objective,reference,completed_rate,feasible_rate,"
      "success_rate,energy_j,time_s,status\n");
}

void print_csv_row(const core::ProblemInstance& problem,
                   const SolveOutcome& outcome, const Options& options) {
  const auto& result = outcome.result;
  std::printf(
      "%s,%s,%s,%s,%zu,%zu,%zu,%.6g,%.6g,%.6g,%.3f,%.3f,%.3f,%.6g,%.6g,ok\n",
      problem.name.c_str(), problem.family.c_str(),
      options.annealer.c_str(), options.algorithm.c_str(), options.runs,
      outcome.setup.iterations, outcome.threads,
      result.best_objective(problem.sense),
      safe_mean_objective(result), problem.reference_objective,
      result.completed_rate, result.feasible_rate, result.success_rate,
      result.energy.mean(), result.time.mean());
}


void print_report(const core::ProblemInstance& problem,
                  const SolveOutcome& outcome, const Options& options) {
  const auto& result = outcome.result;
  const double best = result.best_objective(problem.sense);
  std::printf("instance   : %s [%s] (%s; %zu spins)\n", problem.name.c_str(),
              problem.family.c_str(), problem.summary.c_str(),
              problem.model->num_spins());
  // What the kind runs with: the in-situ kinds flip --flips spins per
  // iteration under the comparator gain, the direct-E kinds flip
  // StandardSetup::baseline_flips under a plain Metropolis test, and
  // simulated bifurcation reads every spin each step with neither.
  char dynamics[64] = "";
  switch (outcome.kind) {
    case core::AnnealerKind::kThisWork:
    case core::AnnealerKind::kThisWorkIdeal:
      std::snprintf(dynamics, sizeof dynamics, "|F|=%zu, gain=%.1f, ",
                    outcome.setup.flips_per_iteration,
                    outcome.setup.acceptance_gain);
      break;
    case core::AnnealerKind::kCimFpga:
    case core::AnnealerKind::kCimAsic:
    case core::AnnealerKind::kMesa:
      std::snprintf(dynamics, sizeof dynamics, "|F|=%zu, ",
                    outcome.setup.baseline_flips);
      break;
    case core::AnnealerKind::kSbBallistic:
    case core::AnnealerKind::kSbDiscrete:
      break;
  }
  std::printf("annealer   : %s, %zu iterations x %zu runs (%zu threads), "
              "%sk=%zu bits\n",
              core::annealer_kind_name(outcome.kind),
              outcome.setup.iterations, options.runs, outcome.threads,
              dynamics, options.bits);
  std::printf("algorithm  : %s dynamics, %s initialization\n",
              options.algorithm.c_str(), options.init.c_str());
  if (result.objective.empty()) {
    std::printf("%-11s: no feasible run (mean violations %.1f)\n",
                problem.objective_label.c_str(), result.violations.mean());
  } else {
    std::printf("%-11s: best %.6g / mean %.6g / reference %.6g (%s)\n",
                problem.objective_label.c_str(), best,
                result.objective.mean(), problem.reference_objective,
                core::objective_sense_name(problem.sense));
  }
  if (result.completed_rate < 1.0) {
    std::size_t failed = 0;
    std::size_t timed_out = 0;
    std::size_t cancelled = 0;
    for (const auto& record : result.per_run) {
      failed += record.status == core::RunStatus::kFailed;
      timed_out += record.status == core::RunStatus::kTimedOut;
      cancelled += record.status == core::RunStatus::kCancelled;
    }
    std::printf("completed  : %.0f %% of runs (%zu failed, %zu timed out, "
                "%zu cancelled); statistics cover completed runs only\n",
                result.completed_rate * 100.0, failed, timed_out, cancelled);
  }
  std::printf("feasible   : %.0f %% of runs satisfied every constraint\n",
              result.feasible_rate * 100.0);
  std::printf("success    : %.0f %% of runs within %.0f %% of reference\n",
              result.success_rate * 100.0,
              (1.0 - options.success_threshold) * 100.0);
  std::printf("hw cost    : %s, %s per run (mean)\n",
              util::si_format(result.energy.mean(), "J").c_str(),
              util::si_format(result.time.mean(), "s").c_str());
  std::printf("adc events : %llu conversions total across runs\n",
              static_cast<unsigned long long>(
                  result.total_ledger.adc_conversions));
  if (!outcome.setup.tiles.monolithic()) {
    const auto bands = crossbar::plan_row_bands(
        problem.model->num_spins(), outcome.setup.tiles.rows);
    std::printf("tiling     : tile caps %zu rows x %zu cols (0 = unbounded), "
                "%zu row bands, %llu tile activations, "
                "%llu partial-sum merges\n",
                outcome.setup.tiles.rows, outcome.setup.tiles.cols,
                bands.size(),
                static_cast<unsigned long long>(
                    result.total_ledger.tile_activations),
                static_cast<unsigned long long>(
                    result.total_ledger.partial_sum_updates));
  }
}

// ---------------------------------------------------------------------------
// Job grammar shared by --batch and --serve (docs/serving.md):
//     <family> <path> [name] [--flag value ...]
// ---------------------------------------------------------------------------

/// Parse the current manifest/serve line into `job`, piece by piece, so a
/// line that fails leaves what it parsed for its failed row.  Every
/// malformed piece -- unknown family, stray token, unknown or malformed
/// override, a job the validator rejects -- throws a contract_error
/// naming "<context>:<line>" via the parser.
void parse_job_line(const problems::io::LineParser& parser,
                    const Options& base,
                    const std::filesystem::path& base_dir, Job& job) {
  job = Job{"-", {}, {}, base};  // family "-" until the line names one
  if (parser.fields() < 2)
    parser.fail("expected '<family> <path> [name] [--flag value ...]'");
  const std::string family(parser.field(0));
  // Validate at parse time: a typo'd family must fail with the offending
  // line before any campaign runs, not mid-batch after real work.
  if (!is_known_family(family))
    parser.fail("unknown problem family '" + family + "'");
  job.family = family;
  if (parser.field(1) != "-") {
    // Paths resolve relative to the manifest's own directory ("-" keeps
    // the generated-instance path, parameterized by the job's seed/knobs).
    std::filesystem::path file{std::string(parser.field(1))};
    if (file.is_relative()) file = base_dir / file;
    job.path = file.string();
  }
  std::size_t i = 2;
  if (i < parser.fields() && parser.field(i).substr(0, 2) != "--")
    job.name = std::string(parser.field(i++));
  while (i < parser.fields()) {
    const std::string flag(parser.field(i));
    if (flag.substr(0, 2) != "--")
      parser.fail("expected a --flag override, got '" + flag + "'");
    if (i + 1 >= parser.fields()) parser.fail("missing value for " + flag);
    const std::string value(parser.field(i + 1));
    auto job_fail = [&](const std::string& f, const char* text,
                        const std::string& expected) {
      parser.fail("invalid value '" + std::string(text) + "' for " + f +
                  " (expected " + expected + ")");
    };
    if (!apply_value_flag(job.options, flag, [&] { return value.c_str(); },
                          job_fail))
      parser.fail("unknown per-job flag '" + flag + "'");
    i += 2;
  }
  if (const auto error = job_error(job); !error.empty()) parser.fail(error);
}

/// Manifest mode reads every job up front: a malformed line kills the batch
/// before any campaign runs (atomic validation), unlike the serve loop
/// which isolates line errors to keep the stream alive.
std::vector<Job> read_batch_manifest(const std::string& path,
                                     const Options& base) {
  const auto text = problems::io::read_file(path, "batch");
  problems::io::LineParser parser(text.view(), path);
  const auto base_dir = std::filesystem::path(path).parent_path();
  std::vector<Job> jobs;
  while (parser.next())
    parse_job_line(parser, base, base_dir, jobs.emplace_back());
  if (jobs.empty())
    throw contract_error("batch: " + path + " lists no instances");
  return jobs;
}

/// Where the one loop's results go: CSV rows (--csv, and always under
/// --serve), the human report of the command line's instance, or the
/// --batch summary table, printed after its last job.
class Sink {
 public:
  explicit Sink(const Options& options)
      : kind_(options.csv              ? Kind::kCsv
              : options.batch.empty() ? Kind::kReport
                                      : Kind::kTable),
        batch_(options.batch),
        table_({"instance", "family", "spins", "best", "mean", "reference",
                "feas%", "succ%", "time/run", "status"}) {
    if (kind_ == Kind::kCsv) print_csv_header();
  }

  void result(const core::ProblemInstance& problem,
              const SolveOutcome& outcome, const Options& options) {
    switch (kind_) {
      case Kind::kCsv:
        print_csv_row(problem, outcome, options);
        break;
      case Kind::kReport:
        print_report(problem, outcome, options);
        break;
      case Kind::kTable:
        table_.row()
            .add(problem.name)
            .add(problem.family)
            .add(problem.model->num_spins())
            .add(outcome.result.best_objective(problem.sense), 4)
            .add(safe_mean_objective(outcome.result), 4)
            .add(problem.reference_objective, 4)
            .add(outcome.result.feasible_rate * 100.0, 0)
            .add(outcome.result.success_rate * 100.0, 0)
            .add(outcome.result.time.mean(), 6)
            .add("ok");
        break;
    }
  }

  /// The one failed-row writer: a job with no result gets a CSV or table
  /// row naming it as far as its line parsed -- name, family and, in CSV,
  /// annealer, algorithm, runs and --iterations (0 = auto) -- with every
  /// result column NaN/0 or "-"; the report prints none.
  void failed(const Job& job) {
    const Options& options = job.options;
    if (kind_ == Kind::kCsv)
      std::printf("%s,%s,%s,%s,%zu,%zu,0,nan,nan,nan,0.000,0.000,0.000,nan,"
                  "nan,failed\n",
                  job_name(job).c_str(), job.family.c_str(),
                  options.annealer.c_str(), options.algorithm.c_str(),
                  options.runs, options.iterations);
    if (kind_ != Kind::kTable) return;
    table_.row().add(job_name(job)).add(job.family);
    for (int column = 0; column < 7; ++column) table_.add("-");
    table_.add("failed");
  }

  void finish(std::size_t jobs) {
    if (kind_ != Kind::kTable) return;
    std::printf("batch      : %zu instances from %s\n", jobs, batch_.c_str());
    std::printf("%s\n", table_.str().c_str());
  }

 private:
  enum class Kind { kCsv, kReport, kTable };
  Kind kind_;
  std::string batch_;
  util::Table table_;
};

/// The one job loop.  `next` fills in the next job and returns false at
/// the end; a --serve line that does not parse throws after filling in
/// what it did parse.  Every mode runs its jobs here, on the process-wide
/// persistent worker pool (util::parallel_for) and one programmed-array
/// cache, so thread spawn and array programming are paid per distinct
/// input, not per job.  A job that fails -- its line, its instance, its
/// campaign -- gets a stderr diagnostic and a failed row; a campaign that
/// completes no run keeps its row but fails too, having no statistics to
/// stand on.  The other jobs still run, and the exit code reports the
/// damage.  stdout is flushed after every job, so a --serve pipeline sees
/// each row as it lands.
int run_jobs(const std::function<bool(Job&)>& next, const Options& options) {
  const auto cache = std::make_shared<crossbar::ArrayCache>();
  Sink sink(options);
  std::fflush(stdout);
  std::size_t ok_jobs = 0;
  std::size_t failed_jobs = 0;
  const auto fail = [&failed_jobs](const Job& job, const std::string& why) {
    ++failed_jobs;
    std::fprintf(stderr, "fecim_solve: %s [%s]: %s\n", job_name(job).c_str(),
                 job.family.c_str(), why.c_str());
  };
  for (;;) {
    Job job;
    try {
      if (!next(job)) break;
      const auto problem = make_family_problem(job);
      const auto outcome = solve(problem, job.options, cache);
      sink.result(problem, outcome, job.options);
      if (outcome.result.completed > 0)
        ++ok_jobs;
      else
        fail(job, "no run completed (" + std::to_string(job.options.runs) +
                      " attempted)");
    } catch (const std::exception& error) {
      fail(job, error.what());
      sink.failed(job);
    }
    std::fflush(stdout);
  }
  sink.finish(ok_jobs + failed_jobs);
  // "N built" counts actual array programmings; tools/check.sh's
  // duplicate-manifest smoke asserts on it.
  const auto stats = cache->stats();
  std::fprintf(stderr,
               "fecim_solve: array cache: %zu built, %zu hits, "
               "%zu evictions, %zu resident (%.1f MiB), %.3f s programming\n",
               stats.misses, stats.hits, stats.evictions, stats.entries,
               static_cast<double>(stats.bytes) / (1024.0 * 1024.0),
               stats.build_seconds);
  if (failed_jobs == 0) return 0;
  std::fprintf(stderr, "fecim_solve: %zu of %zu jobs failed\n", failed_jobs,
               ok_jobs + failed_jobs);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.serve.empty()) {
      // The command line's one job, or a manifest parsed in full before
      // its first job runs, so one malformed line stops the batch first.
      auto jobs = options.batch.empty()
                      ? std::vector<Job>{Job{options.problem, options.file,
                                             {}, options}}
                      : read_batch_manifest(options.batch, options);
      std::size_t taken = 0;
      return run_jobs(
          [&](Job& job) {
            if (taken == jobs.size()) return false;
            job = std::move(jobs[taken++]);
            return true;
          },
          options);
    }
    // The --serve stream, parsed one line at a time as it arrives, so a
    // malformed line fails alone and the stream goes on.  Paths resolve
    // against the jobs file's directory (stdin: the cwd).
    const bool from_stdin = options.serve == "-";
    std::ifstream file;
    std::filesystem::path base_dir;
    if (!from_stdin) {
      file.open(options.serve);
      if (!file) throw contract_error("serve: cannot open " + options.serve);
      base_dir = std::filesystem::path(options.serve).parent_path();
    }
    problems::io::LineParser parser(from_stdin ? std::cin : file,
                                    from_stdin ? "serve" : options.serve);
    return run_jobs(
        [&](Job& job) {
          if (!parser.next()) return false;
          parse_job_line(parser, options, base_dir, job);
          return true;
        },
        options);
  } catch (const std::exception& error) {
    // A manifest that does not parse or a --serve file that cannot be
    // opened: a clean diagnostic (malformed lines name the offending
    // line), not a raw terminate.
    std::fprintf(stderr, "fecim_solve: %s\n", error.what());
    return 1;
  }
}
