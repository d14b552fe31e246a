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
// Both multi-job modes share one job grammar and one execution path
// (docs/serving.md): each significant line is
//     <family> <path> [name] [--flag value ...]
// where <path> of "-" means "generate the instance from the seed", and the
// trailing overrides rebind any shared per-campaign flag (--iterations,
// --runs, --seed, --annealer, --tile-rows, family knobs, ...) for that job
// only.  All jobs in a process share the persistent worker pool AND the
// digest-keyed programmed-array cache (crossbar/array_cache.hpp): jobs
// that resolve to the same quantized couplings + mapping + device +
// variation seed + tile shape reuse one programmed array, and the final
// stderr line reports the cache's built/hit counters.
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
// Malformed numeric flags and malformed instance files exit 2/1 with a
// diagnostic (file errors name the offending line) instead of silently
// parsing to zero or dying on a contract check.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
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
  int bits = 8;
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
  else if (flag == "--bits") options.bits = static_cast<int>(size_arg());
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

/// Why the generated graph of a maxcut or coloring job cannot be drawn at
/// the requested size, naming the flags to change; empty when it can (or
/// when the job reads `file` instead).  Checked before generating, so such
/// a job fails with this message instead of a generator precondition.
std::string generated_graph_error(const std::string& family,
                                  const std::string& file,
                                  const Options& options) {
  if (!file.empty()) return {};
  const auto text = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", value);
    return std::string(buf);
  };
  if (family == "maxcut") {
    const std::size_t nodes = options.nodes > 0 ? options.nodes : 800;
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
    const std::size_t nodes = options.nodes > 0 ? options.nodes : 16;
    const double degree = options.degree > 0.0 ? options.degree : 2.5;
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
    if (arg == "--problem") options.problem = next("--problem");
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
  if (options.runs == 0) {
    // 0 runs would divide 0/0 into feasible_rate and report a campaign that
    // never ran; fail loudly instead.
    std::fprintf(stderr, "fecim_solve: --runs must be at least 1\n");
    std::exit(2);
  }
  if (options.flips == 0) {
    std::fprintf(stderr, "fecim_solve: --flips must be at least 1\n");
    std::exit(2);
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
  if (options.batch.empty() && options.serve.empty()) {
    const auto error =
        generated_graph_error(options.problem, options.file, options);
    if (!error.empty()) {
      std::fprintf(stderr, "fecim_solve: %s\n", error.c_str());
      std::exit(2);
    }
  }
  return options;
}

bool is_known_family(const std::string& family) {
  return family == "maxcut" || family == "coloring" ||
         family == "knapsack" || family == "partition" || family == "tsp" ||
         family == "qubo";
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

/// Build one family's instance, from `file` when given (any family) or the
/// seeded generators otherwise.
core::ProblemInstance make_family_problem(const std::string& family,
                                          const std::string& file,
                                          const std::string& name,
                                          const Options& options) {
  const auto seed = options.seed;
  const std::string instance_name = !name.empty() ? name : file;
  if (family == "maxcut") {
    const std::size_t nodes = options.nodes > 0 ? options.nodes : 800;
    problems::Graph graph =
        file.empty() ? problems::gset_like_instance(nodes, seed)
                     : problems::read_gset_file(file);
    return problems::make_maxcut_problem(
        instance_name.empty() ? "generated-" + std::to_string(nodes)
                              : instance_name,
        std::move(graph), 48, seed);
  }
  if (family == "coloring") {
    const std::size_t nodes = options.nodes > 0 ? options.nodes : 16;
    const double degree = options.degree > 0.0 ? options.degree : 2.5;
    problems::Graph graph =
        file.empty()
            ? problems::random_graph(nodes, degree,
                                     problems::WeightScheme::kUnit, seed)
            : problems::read_dimacs_coloring_file(file);
    return problems::make_coloring_problem(
        instance_name.empty() ? "coloring-" + std::to_string(nodes)
                              : instance_name,
        std::move(graph), options.colors,
        options.penalty > 0.0 ? options.penalty : 2.0);
  }
  if (family == "knapsack") {
    auto instance =
        file.empty()
            ? problems::random_knapsack(options.items, seed, options.capacity)
            : problems::read_knapsack_file(file);
    return problems::make_knapsack_problem(
        instance_name.empty() ? "knapsack-" + std::to_string(options.items)
                              : instance_name,
        std::move(instance), options.penalty);
  }
  if (family == "partition") {
    auto numbers =
        file.empty()
            ? problems::random_partition_numbers(options.numbers, seed)
            : problems::read_partition_file(file);
    return problems::make_partition_problem(
        instance_name.empty() ? "partition-" + std::to_string(options.numbers)
                              : instance_name,
        std::move(numbers));
  }
  if (family == "tsp") {
    auto instance = file.empty() ? problems::random_tsp(options.cities, seed)
                                 : problems::read_tsp_file(file);
    return problems::make_tsp_problem(
        instance_name.empty() ? "tsp-" + std::to_string(options.cities)
                              : instance_name,
        std::move(instance), options.penalty);
  }
  if (family == "qubo") {
    const std::size_t nodes = options.nodes > 0 ? options.nodes : 64;
    const double degree = options.degree > 0.0 ? options.degree : 8.0;
    auto instance = file.empty() ? problems::random_qubo(nodes, degree, seed)
                                 : problems::read_qubo_file(file);
    return problems::make_qubo_problem(
        instance_name.empty() ? "qubo-" + std::to_string(nodes)
                              : instance_name,
        std::move(instance), 24, seed);
  }
  std::fprintf(stderr, "unknown problem '%s'\n", family.c_str());
  std::exit(2);
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
                   const std::shared_ptr<crossbar::ArrayCache>& cache =
                       nullptr) {
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
  outcome.setup.bits = options.bits;
  // Tile-partitioned execution: bound the physical tile (0 = monolithic);
  // the engines sweep the tile grid and accumulate partial sums digitally.
  outcome.setup.tiles = crossbar::TileShape{options.tile_rows,
                                            options.tile_cols};
  // Multi-job modes share one digest-keyed programmed-array cache: jobs
  // with identical array-defining inputs reuse one ProgrammedArray.
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
              "%sk=%d bits\n",
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

struct Job {
  std::string family;
  std::string path;  ///< empty = generate from the (per-job) seed
  std::string name;
  Options options;  ///< process options + per-job overrides
};

/// Parse the current manifest/serve line into a Job.  Every malformed piece
/// -- unknown family, stray token, unknown or malformed override -- throws
/// a contract_error naming "<context>:<line>" via the parser.
Job parse_job_line(const problems::io::LineParser& parser,
                   const Options& base,
                   const std::filesystem::path& base_dir) {
  if (parser.fields() < 2)
    parser.fail("expected '<family> <path> [name] [--flag value ...]'");
  Job job;
  job.options = base;
  job.family = std::string(parser.field(0));
  // Validate at parse time: a typo'd family must fail with the offending
  // line before any campaign runs, not mid-batch after real work.
  if (!is_known_family(job.family))
    parser.fail("unknown problem family '" + job.family + "'");
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
  if (job.options.runs == 0) parser.fail("--runs must be at least 1");
  if (job.options.flips == 0) parser.fail("--flips must be at least 1");
  const auto error = generated_graph_error(job.family, job.path, job.options);
  if (!error.empty()) parser.fail(error);
  return job;
}

/// Manifest mode reads every job up front: a malformed line kills the batch
/// before any campaign runs (atomic validation), unlike the serve loop
/// which isolates line errors to keep the stream alive.
std::vector<Job> read_batch_manifest(const std::string& path,
                                     const Options& base) {
  return problems::io::read_file(
      path, "batch", [&base](auto&& in, const std::string& context) {
        problems::io::LineParser parser(in, context);
        const auto base_dir = std::filesystem::path(context).parent_path();
        std::vector<Job> jobs;
        while (parser.next())
          jobs.push_back(parse_job_line(parser, base, base_dir));
        if (jobs.empty())
          throw contract_error("batch: " + context + " lists no instances");
        return jobs;
      });
}

/// Isolation row for a job whose campaign could not run at all (malformed
/// file, infeasible encode): every result column is NaN/0 and the status
/// column says why the row carries no numbers.
void print_csv_failed_row(const std::string& display,
                          const std::string& family,
                          const Options& options) {
  std::printf("%s,%s,%s,%s,%zu,0,0,nan,nan,nan,0.000,0.000,0.000,nan,nan,"
              "failed\n",
              display.c_str(), family.c_str(), options.annealer.c_str(),
              options.algorithm.c_str(), options.runs);
}

/// Final cache report for the multi-job modes.  "N built" is the count of
/// actual array programmings -- the duplicate-manifest smoke in
/// tools/check.sh asserts on it.
void print_cache_stats(const crossbar::ArrayCache& cache) {
  const auto stats = cache.stats();
  std::fprintf(stderr,
               "fecim_solve: array cache: %zu built, %zu hits, "
               "%zu evictions, %zu resident (%.1f MiB), %.3f s programming\n",
               stats.misses, stats.hits, stats.evictions, stats.entries,
               static_cast<double>(stats.bytes) / (1024.0 * 1024.0),
               stats.build_seconds);
}

int run_batch(const Options& options) {
  const auto jobs = read_batch_manifest(options.batch, options);
  // All campaigns in the batch share the process-wide persistent worker
  // pool (util::parallel_for) and one programmed-array cache, so thread
  // spawn and array programming costs are paid per distinct input, not per
  // manifest line.
  const auto cache = std::make_shared<crossbar::ArrayCache>();
  if (options.csv) print_csv_header();
  util::Table table({"instance", "family", "spins", "best", "mean",
                     "reference", "feas%", "succ%", "time/run", "status"});
  std::size_t failed_jobs = 0;
  for (const auto& job : jobs) {
    try {
      const auto problem =
          make_family_problem(job.family, job.path, job.name, job.options);
      const auto outcome = solve(problem, job.options, cache);
      if (options.csv) {
        print_csv_row(problem, outcome, job.options);
        continue;
      }
      table.row()
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
    } catch (const std::exception& error) {
      // Batch isolation: one malformed instance is a failed row plus a
      // stderr diagnostic, not a dead batch -- the remaining instances
      // still run, and the final exit code reports the damage.
      ++failed_jobs;
      const std::string display = !job.name.empty() ? job.name : job.path;
      std::fprintf(stderr, "fecim_solve: %s [%s]: %s\n", display.c_str(),
                   job.family.c_str(), error.what());
      if (options.csv) {
        print_csv_failed_row(display, job.family, job.options);
        continue;
      }
      table.row()
          .add(display)
          .add(job.family)
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("-")
          .add("failed");
    }
  }
  if (!options.csv) {
    std::printf("batch      : %zu instances from %s\n", jobs.size(),
                options.batch.c_str());
    std::printf("%s\n", table.str().c_str());
  }
  print_cache_stats(*cache);
  if (failed_jobs > 0) {
    std::fprintf(stderr, "fecim_solve: %zu of %zu batch instances failed\n",
                 failed_jobs, jobs.size());
    return 1;
  }
  return 0;
}

/// Persistent serve loop: jobs arrive one line at a time (stdin or a jobs
/// file), each executes immediately against the warm process -- live
/// thread pool, resident programmed-array cache -- and its CSV row is
/// flushed so a pipeline consumer sees results as they land.  A malformed
/// line or failed campaign yields a failed row and keeps serving.
int run_serve(const Options& options) {
  std::ifstream file_in;
  std::istream* in = &std::cin;
  std::string context = "serve";
  std::filesystem::path base_dir;  // stdin jobs resolve against the cwd
  if (options.serve != "-") {
    file_in.open(options.serve);
    if (!file_in) {
      std::fprintf(stderr, "fecim_solve: serve: cannot open %s\n",
                   options.serve.c_str());
      return 1;
    }
    in = &file_in;
    context = options.serve;
    base_dir = std::filesystem::path(options.serve).parent_path();
  }

  const auto cache = std::make_shared<crossbar::ArrayCache>();
  print_csv_header();
  std::fflush(stdout);

  problems::io::LineParser parser(*in, context);
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;
  while (parser.next()) {
    ++jobs;
    // Best-effort identity for the failure row, refined once the line
    // parses: a job that dies before parse_job_line returns still gets a
    // stream row naming whatever the line did say.
    std::string display(parser.field(0));
    std::string family = "-";
    if (parser.fields() >= 2) display = std::string(parser.field(1));
    try {
      const Job job = parse_job_line(parser, options, base_dir);
      family = job.family;
      if (!job.name.empty())
        display = job.name;
      else if (!job.path.empty())
        display = job.path;
      const auto problem =
          make_family_problem(job.family, job.path, job.name, job.options);
      const auto outcome = solve(problem, job.options, cache);
      print_csv_row(problem, outcome, job.options);
    } catch (const std::exception& error) {
      ++failed_jobs;
      std::fprintf(stderr, "fecim_solve: %s [%s]: %s\n", display.c_str(),
                   family.c_str(), error.what());
      std::fflush(stderr);
      print_csv_failed_row(display, family, options);
    }
    std::fflush(stdout);
  }
  print_cache_stats(*cache);
  if (failed_jobs > 0) {
    std::fprintf(stderr, "fecim_solve: %zu of %zu served jobs failed\n",
                 failed_jobs, jobs);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (!options.batch.empty()) return run_batch(options);
    if (!options.serve.empty()) return run_serve(options);

    const auto problem =
        make_family_problem(options.problem, options.file, "", options);
    const auto outcome = solve(problem, options);
    if (options.csv) {
      print_csv_header();
      print_csv_row(problem, outcome, options);
    } else {
      print_report(problem, outcome, options);
    }
    if (outcome.result.completed == 0) {
      // A campaign in which not a single run finished has no statistics to
      // stand on; degrade gracefully in the output but fail the process.
      std::fprintf(stderr, "fecim_solve: no run completed (%zu attempted)\n",
                   options.runs);
      return 1;
    }
  } catch (const contract_error& error) {
    // Parser and contract diagnostics (malformed files name the offending
    // line) exit cleanly instead of aborting through std::terminate.
    std::fprintf(stderr, "fecim_solve: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    // Anything else (allocation failure on an oversized instance,
    // filesystem errors) still deserves a diagnostic, not a raw terminate.
    std::fprintf(stderr, "fecim_solve: %s\n", error.what());
    return 1;
  }
  return 0;
}
