#!/usr/bin/env bash
# Single entry point for the repo's correctness + performance gate:
#   1. configure + build the release-with-assertions preset (library, tests,
#      benches, examples, tools),
#   2. run the test suite -- the tier-1 fast loop (ctest -L tier1) by
#      default, every label (tier1 + differential + slow) under --full,
#   3. smoke-run the hot-path benchmark and gate its speedups against the
#      tracked baseline in BENCH_hotpath.json (tools/bench_gate.py; >10%
#      regressions on both signals fail, FECIM_BENCH_TOLERANCE overrides;
#      campaign rows and the tiled analog-noisy row are gated alongside the
#      engine rows),
#   4. smoke-run the quickstart example and fecim_solve on every COP family
#      (maxcut, coloring, knapsack, partition, tsp, qubo), both generated
#      and file-backed (examples/data/ fixtures, one per file format,
#      loaded through the mmap ingestion path) plus one --batch manifest
#      campaign, so the README's build-and-run instructions, the unified
#      solver pipeline, and the ingestion subsystem stay honest,
#   5. smoke the serving path (docs/serving.md): a duplicate-entry manifest
#      through --batch and --serve must report exactly one array build
#      (digest-keyed cache), stream identical rows, and accept per-job
#      flag overrides from stdin,
#   6. smoke the simulated-bifurcation backend (docs/algorithms.md) on two
#      families plus one greedy warm-started run, asserting the CSV
#      algorithm column records the dynamics that ran,
#   7. smoke multi-process sharding (docs/sharding.md): the same campaign at
#      --workers 1 and --workers 3 must emit byte-identical CSV, a campaign
#      that loses a worker (--inject-kill-worker) must recover
#      bit-identically, and a --resume from the journal that recovery wrote
#      must reproduce the CSV without re-executing any run,
#   8. smoke the constructive warm starts: --init greedy must run on every
#      COP family (the greedy/DSatur/density/differencing/NN/descent
#      heuristics in problems/warm_start.hpp).
#
# Under --sanitize the whole suite runs ASan+UBSan-instrumented, which
# includes the mmap LineParser differential in test_instance_io (unaligned
# tails, empty files, files without a trailing newline).  Under --tsan it
# runs ThreadSanitizer-instrumented, which covers every util::parallel_for
# user: replica campaigns, band-parallel sweeps, and the setup loops
# (reference_cut restarts, programming variation) that test_setup_parallel
# drives above their size gates.
#
# Usage: tools/check.sh [--full] [--full-bench] [--sanitize] [--tsan]
#   --full         run the complete ctest suite (every label) instead of
#                  the tier-1 fast loop; implied by --full-bench.
#   --full-bench   run the complete suite, then additionally run
#                  bench_hotpath at its full sizes, rewriting
#                  BENCH_hotpath.json in the repo root (do this when a PR
#                  intentionally moves hot-path performance).
#   --sanitize     build the asan-ubsan preset (address + undefined-behavior
#                  sanitizers, no recovery) and run the whole suite under it
#                  -- including the randomized engine-vs-reference
#                  differential layer (ctest -L differential), which is the
#                  memory-safety workout of the vectorized sweep -- then
#                  exit; sanitized binaries are too slow for the bench gate
#                  to be meaningful.
#   --tsan         build the tsan preset (thread sanitizer) and run the whole
#                  suite under it, then exit; a reported race fails the test
#                  that hit it.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

full=0
full_bench=0
sanitize=0
tsan=0
for arg in "$@"; do
  case "${arg}" in
    --full) full=1 ;;
    --full-bench) full_bench=1; full=1 ;;
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${tsan}" == 1 ]]; then
  cmake --preset tsan
  cmake --build build-tsan -j"$(nproc)"
  ctest --test-dir build-tsan --output-on-failure -j"$(nproc)"
  echo "check.sh: thread-sanitized test suite OK"
  exit 0
fi

if [[ "${sanitize}" == 1 ]]; then
  cmake --preset asan-ubsan
  cmake --build build-asan -j"$(nproc)"
  # Whole suite, then the differential layer by its label so its presence
  # is asserted (an empty -L match is a configuration bug, not a pass).
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure -L differential \
    --no-tests=error
  echo "check.sh: sanitized test suite (incl. differential layer) OK"
  exit 0
fi

if [[ -f CMakePresets.json ]]; then
  cmake --preset release
else
  cmake -B build -S .
fi
cmake --build build -j"$(nproc)"

if [[ "${full}" == 1 ]]; then
  ctest --test-dir build --output-on-failure -j"$(nproc)"
else
  # Fast edit loop: the tier-1 invariant suite only.  The differential and
  # slow labels run under --full / --full-bench / --sanitize.
  ctest --test-dir build --output-on-failure -j"$(nproc)" -L tier1 \
    --no-tests=error
fi

# Smoke configuration: smallest size, few iterations; the JSON goes to the
# build tree (never the tracked baseline) for the regression gate.
smoke_json="build/bench_smoke.json"
FECIM_BENCH_SMOKE=1 FECIM_BENCH_OUT="${smoke_json}" ./build/bench/bench_hotpath

if command -v python3 >/dev/null 2>&1; then
  python3 tools/bench_gate.py BENCH_hotpath.json "${smoke_json}"
else
  echo "check.sh: python3 not found; skipping bench regression gate" >&2
fi

# Example smoke: quickstart exercises the whole stack (problem -> mapping ->
# analog engine -> annealer -> cost ledger) in under a second.
./build/examples/quickstart >/dev/null
echo "check.sh: example smoke OK"

# Solver smoke: every COP family end to end through the unified campaign
# pipeline (tiny budgets -- this checks wiring, not solution quality).
for family in maxcut coloring knapsack partition tsp qubo; do
  ./build/tools/fecim_solve --problem "${family}" --nodes 48 --items 8 \
    --numbers 12 --cities 5 --iterations 500 --runs 2 --threads 2 \
    --csv >/dev/null
done
echo "check.sh: fecim_solve family smoke OK"

# Tiled-execution smoke: one campaign over a 4-band tile grid exercises the
# TilePlan path end to end (per-tile conversions, partial-sum accumulation,
# the --tile-rows/--tile-cols plumbing).
./build/tools/fecim_solve --nodes 96 --tile-rows 24 --tile-cols 512 \
  --iterations 500 --runs 2 --threads 2 --csv >/dev/null
echo "check.sh: tiled execution smoke OK"

# Ingestion smoke: every family loads its file format from the tracked
# fixtures, and one --batch manifest runs a multi-instance campaign.
declare -A fixture=(
  [maxcut]=examples/data/maxcut_petersen.gset
  [coloring]=examples/data/coloring_petersen.col
  [knapsack]=examples/data/knapsack_p01.kp
  [partition]=examples/data/partition_perfect.txt
  [tsp]=examples/data/tsp_pentagon.xy
  [tsplib]=examples/data/tsp_ulysses5.tsp
  [qubo]=examples/data/qubo_mis8.qubo
)
for family in "${!fixture[@]}"; do
  problem="${family%lib}"  # the tsplib fixture loads through --problem tsp
  ./build/tools/fecim_solve --problem "${problem}" --file "${fixture[$family]}" \
    --iterations 300 --runs 2 --threads 2 --csv >/dev/null
done
./build/tools/fecim_solve --batch examples/data/campaign.batch \
  --iterations 300 --runs 2 --threads 2 --csv >/dev/null
echo "check.sh: file-backed ingestion smoke OK"

# Fault-tolerance smoke (docs/robustness.md): a journaled campaign resumed
# from its complete journal reproduces the CSV byte for byte; an injected
# failure degrades the campaign instead of killing it; a batch with one
# malformed instance exits non-zero but still reports every row.
ft_journal="build/smoke_journal.txt"
rm -f "${ft_journal}"
./build/tools/fecim_solve --nodes 48 --iterations 400 --runs 4 --threads 2 \
  --journal "${ft_journal}" --csv > build/smoke_ft_run.csv
./build/tools/fecim_solve --nodes 48 --iterations 400 --runs 4 --threads 2 \
  --journal "${ft_journal}" --resume --csv > build/smoke_ft_resume.csv
cmp build/smoke_ft_run.csv build/smoke_ft_resume.csv
./build/tools/fecim_solve --nodes 48 --iterations 400 --runs 4 --threads 2 \
  --inject-fail 1 --retries 0 --csv | grep -q ",0.750," \
  || { echo "check.sh: injected failure did not degrade completed_rate" >&2; exit 1; }
ft_batch_dir="build/smoke_ft_batch"
mkdir -p "${ft_batch_dir}"
echo "not a gset file" > "${ft_batch_dir}/bad.gset"
printf 'maxcut %s good\nmaxcut %s bad\n' \
  "${repo_root}/examples/data/maxcut_petersen.gset" \
  "${ft_batch_dir}/bad.gset" > "${ft_batch_dir}/manifest.batch"
if ./build/tools/fecim_solve --batch "${ft_batch_dir}/manifest.batch" \
  --iterations 300 --runs 2 --threads 2 --csv > "${ft_batch_dir}/out.csv" \
  2>/dev/null; then
  echo "check.sh: batch with a malformed instance should exit non-zero" >&2
  exit 1
fi
grep -q '^good,' "${ft_batch_dir}/out.csv" \
  || { echo "check.sh: surviving batch row missing" >&2; exit 1; }
grep -q '^bad,.*,failed$' "${ft_batch_dir}/out.csv" \
  || { echo "check.sh: failed batch row missing" >&2; exit 1; }
echo "check.sh: fault-tolerance smoke OK"

# Serving smoke (docs/serving.md): a manifest listing the same instance
# twice must program its crossbar exactly once -- the duplicate entry is a
# digest-keyed cache hit -- in both --batch and --serve modes, and the
# serve loop streams one CSV row per job line.
cache_dir="build/smoke_cache"
mkdir -p "${cache_dir}"
printf 'maxcut %s twin-a\nmaxcut %s twin-b\n' \
  "${repo_root}/examples/data/maxcut_petersen.gset" \
  "${repo_root}/examples/data/maxcut_petersen.gset" \
  > "${cache_dir}/twins.batch"
./build/tools/fecim_solve --batch "${cache_dir}/twins.batch" \
  --iterations 300 --runs 2 --threads 2 --csv \
  > "${cache_dir}/batch.csv" 2> "${cache_dir}/batch.err"
grep -q 'array cache: 1 built, 1 hits' "${cache_dir}/batch.err" \
  || { echo "check.sh: duplicate batch entries did not share one array build" >&2
       cat "${cache_dir}/batch.err" >&2; exit 1; }
./build/tools/fecim_solve --serve "${cache_dir}/twins.batch" \
  --iterations 300 --runs 2 --threads 2 \
  > "${cache_dir}/serve.csv" 2> "${cache_dir}/serve.err"
grep -q 'array cache: 1 built, 1 hits' "${cache_dir}/serve.err" \
  || { echo "check.sh: served duplicate jobs did not share one array build" >&2
       cat "${cache_dir}/serve.err" >&2; exit 1; }
grep -q '^twin-a,' "${cache_dir}/serve.csv" \
  && grep -q '^twin-b,' "${cache_dir}/serve.csv" \
  || { echo "check.sh: serve loop missing per-job rows" >&2; exit 1; }
cmp <(tail -n +2 "${cache_dir}/batch.csv") \
    <(tail -n +2 "${cache_dir}/serve.csv") \
  || { echo "check.sh: --serve rows differ from --batch rows" >&2; exit 1; }
# Per-job flag overrides parse and apply (a job-level seed change must not
# be rejected and must reuse the shared thread pool/cache plumbing).
printf 'maxcut - gen --nodes 48 --seed 9\n' | \
  ./build/tools/fecim_solve --serve - --iterations 300 --runs 2 --threads 2 \
  > "${cache_dir}/stdin.csv" 2>/dev/null
grep -q '^gen,' "${cache_dir}/stdin.csv" \
  || { echo "check.sh: stdin serve job with overrides failed" >&2; exit 1; }
echo "check.sh: serving smoke OK"

# Solver-dynamics smoke (docs/algorithms.md): the SB backend end to end on
# an unconstrained and a constrained family, plus a greedy warm-started
# run through --init; the CSV algorithm column must record the dynamics.
./build/tools/fecim_solve --nodes 48 --algorithm sb-ballistic \
  --iterations 50 --runs 2 --threads 2 --csv | grep -q ',sb-ballistic,' \
  || { echo "check.sh: sb-ballistic maxcut smoke failed" >&2; exit 1; }
./build/tools/fecim_solve --problem coloring --nodes 12 \
  --algorithm sb-discrete --iterations 80 --runs 2 --threads 2 --csv \
  | grep -q ',sb-discrete,' \
  || { echo "check.sh: sb-discrete coloring smoke failed" >&2; exit 1; }
./build/tools/fecim_solve --nodes 48 --algorithm sb-ballistic --init greedy \
  --iterations 50 --runs 2 --threads 2 --csv >/dev/null \
  || { echo "check.sh: greedy warm-started SB smoke failed" >&2; exit 1; }
echo "check.sh: solver-dynamics smoke OK"

# Sharded-campaign smoke (docs/sharding.md): fork-based worker processes
# must be invisible in the results.  FECIM_THREADS=4 on every leg so the
# hardware-thread cap never bites on small CI hosts (and all legs agree on
# the CSV threads column).
shard_dir="build/smoke_shard"
mkdir -p "${shard_dir}"
shard_args=(--problem partition --numbers 16 --iterations 400 --runs 5)
FECIM_THREADS=4 ./build/tools/fecim_solve "${shard_args[@]}" --workers 1 \
  --csv > "${shard_dir}/w1.csv"
FECIM_THREADS=4 ./build/tools/fecim_solve "${shard_args[@]}" --workers 3 \
  --csv > "${shard_dir}/w3.csv"
cmp "${shard_dir}/w1.csv" "${shard_dir}/w3.csv" \
  || { echo "check.sh: --workers 1 and --workers 3 CSV differ" >&2; exit 1; }
# Kill worker 1 mid-campaign: the parent must detect the dead pipe and
# re-execute the lost runs bit-identically.
rm -f "${shard_dir}/kill.journal"*
FECIM_THREADS=4 ./build/tools/fecim_solve "${shard_args[@]}" --workers 3 \
  --journal "${shard_dir}/kill.journal" --inject-kill-worker 1 \
  --csv > "${shard_dir}/kill.csv"
cmp "${shard_dir}/w1.csv" "${shard_dir}/kill.csv" \
  || { echo "check.sh: kill-worker recovery was not bit-identical" >&2; exit 1; }
# Resume from the journal that recovery wrote, with failure injection armed
# on every run: identical CSV proves every record came from the journal and
# nothing re-executed.
FECIM_THREADS=4 ./build/tools/fecim_solve "${shard_args[@]}" --workers 3 \
  --journal "${shard_dir}/kill.journal" --resume --inject-fail 0,1,2,3,4 \
  --csv > "${shard_dir}/resume.csv"
cmp "${shard_dir}/w1.csv" "${shard_dir}/resume.csv" \
  || { echo "check.sh: sharded resume did not reproduce the campaign" >&2; exit 1; }
echo "check.sh: sharded-campaign smoke OK"

# Warm-start smoke: every family's constructive heuristic through --init
# greedy (greedy cut, DSatur, density fill, differencing, nearest
# neighbour, 1-opt descent).
for family in maxcut coloring knapsack partition tsp qubo; do
  ./build/tools/fecim_solve --problem "${family}" --nodes 48 --items 8 \
    --numbers 12 --cities 5 --init greedy --iterations 300 --runs 2 \
    --threads 2 --csv >/dev/null \
    || { echo "check.sh: --init greedy failed for ${family}" >&2; exit 1; }
done
echo "check.sh: warm-start smoke OK"

if [[ "${full_bench}" == 1 ]]; then
  ./build/bench/bench_hotpath
fi

echo "check.sh: OK"
