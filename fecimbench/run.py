#!/usr/bin/env python3
"""fecim benchmark: one measured run of one workload.

    python3 fecimbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds libfecim, fecim_solve and the benchmark driver with the release
preset's settings under .bench_build/fecimbench, generates the workload's
instance files from the seed, measures for S seconds, checks every job's
result row against fecim_solve, and prints a metric table followed by one
JSON line {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics BENCHMARK.json lists; --trace 1 runs untraced and
traced passes in turn and reports the per-layer metrics.  Exits non-zero
when the build, a self-test or a correctness check fails.  README.md in
this directory describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the source directory as checked out

import metrics  # noqa: E402
import selftest  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fecimbench")
WORKLOADS = ("gset-setup", "replica-noisy", "serve-mix")
MAX_THREADS = 4
# Everything after the build (generation, measurement, the fecim_solve gate)
# must end within this budget, so that a run ends within 180 s.
RUN_BUDGET_S = 170


def fail(message):
    print(f"fecimbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, build incrementally; returns (driver, fecim_solve)."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {**os.environ, "TMPDIR": tmp}
    log = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DFECIM_DISABLE_CONTRACTS=OFF"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                fail(f"build step failed: {' '.join(step)} (log: {log})")
    with open(os.path.join(BUILD, "targets.txt")) as targets:
        driver, solve = targets.read().split()
    return driver, solve


def run_checked(args, cwd, deadline, what):
    try:
        done = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{what} ran past the run's {RUN_BUDGET_S} s budget")
    if done.returncode != 0:
        fail(f"{what} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return done.stdout


def gate(solve, work, expected_rows, deadline):
    """Rows fecim_solve prints for the same jobs; returns (checked, mismatches)."""
    rows = []
    with open(os.path.join(work, "gate.txt")) as commands:
        for line in commands:
            out = run_checked([solve] + line.split(), work, deadline,
                              "fecim_solve")
            rows.extend(out.splitlines()[1:])  # drop the CSV header
    mismatches = abs(len(rows) - len(expected_rows))
    for mine, theirs in zip(expected_rows, rows):
        if mine != theirs:
            mismatches += 1
            print(f"MISMATCH driver : {mine}\n         solve  : {theirs}")
    return max(len(rows), len(expected_rows)), mismatches


def repeat_check(driver, workload, seed, threads, record):
    """Compare this run's digest and exact counts with an earlier run of the
    same binary, workload and seed; returns False on a difference."""
    with open(driver, "rb") as binary:
        build_id = hashlib.sha256(binary.read()).hexdigest()[:16]
    path = os.path.join(BUILD, "repeat",
                        f"{build_id}-{workload}-{seed}-t{threads}.json")
    if os.path.exists(path):
        with open(path) as earlier:
            previous = json.load(earlier)
        for key, value in record.items():
            if key in previous and previous[key] != value:
                print(f"REPEAT MISMATCH {key}: {previous[key]} -> {value}")
                return False
        record = {**previous, **record}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump(record, out)
    return True


def print_table(title, table):
    print(f"-- {title}")
    for name, (value, unit, note) in table.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {shown:>14} {unit:<6} {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not selftest.run():
        fail("arithmetic self-tests failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    driver, solve = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    threads = min(MAX_THREADS, os.cpu_count() or 1)
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(threads)]
    run_checked([driver, "gen"] + common, work, deadline, "driver gen")
    run_checked([driver, "measure"] + common +
                ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--out", "raw.json"], work, deadline, "driver measure")
    with open(os.path.join(work, "raw.json")) as raw_file:
        raw = json.load(raw_file)
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    # Correctness: fecim_solve agrees with every row; every pass, traced or
    # not, reproduces the first bit for bit; every run succeeded.
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not metrics.ok_job(j) for p in passes for j in p["jobs"])
    for job in passes[0]["jobs"]:
        if not metrics.ok_job(job):
            print(f"FAILED JOB {job['row'].split(',')[0]}: "
                  f"{job['error'] or 'not every run completed'}")
    checked, mismatches = gate(solve, work,
                               [j["row"] for j in passes[0]["jobs"]], deadline)
    attempted += checked
    failed += mismatches
    digest = metrics.pass_digest(passes[0]["jobs"])
    counts = metrics.sim_counts(passes[0]["jobs"])
    for p in passes[1:]:
        if metrics.pass_digest(p["jobs"]) != digest:
            failed += sum(a["digest"] != b["digest"]
                          for a, b in zip(passes[0]["jobs"], p["jobs"]))
            print(f"DIGEST MISMATCH in a {'traced' if p['traced'] else 'untraced'} pass")
    caches = {}
    for p in passes:
        if p["cache_hits"] >= 0:
            key = "traced" if p["traced"] else "untraced"
            seen = caches.setdefault(key, (p["cache_hits"], p["cache_misses"]))
            if seen != (p["cache_hits"], p["cache_misses"]):
                failed += 1
                print(f"CACHE COUNT MISMATCH in {key} passes")
    # Round-trip through JSON so it compares equal to a stored record.
    record = json.loads(json.dumps(
        {"digest": digest, "counts": counts,
         **{f"cache_{k}": v for k, v in caches.items()}}))
    attempted += 1
    if not repeat_check(driver, args.workload, args.seed, threads, record):
        failed += 1

    fp, cal = raw["fingerprint"], raw["calibration"]
    drift = max(cal["before_s"], cal["after_s"]) / min(cal["before_s"], cal["after_s"])
    contended = cal["before_s"] > 1.3 * cal["single_s"]
    print(f"fecimbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"host: nproc={fp['nproc']} threads={fp['threads']} "
          f"compiler={fp['compiler']} preset=release build={fp['build_type']} "
          f"contracts={'on' if fp['contracts'] else 'off'} "
          f"march_native={'on' if fp['march_native'] else 'off'}")
    print(f"calibration: 1-thread {cal['single_s']:.4f} s, {fp['threads']}-thread "
          f"before {cal['before_s']:.4f} s after {cal['after_s']:.4f} s "
          f"(warm-up {cal['warmup_s']:.2f} s)"
          + (" DRIFTED" if drift > 1.25 else "")
          + (" CONTENDED" if contended else ""))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(passes[0]['jobs'])} jobs each; walls (T traced) "
          + " ".join(f"{p['wall_s']:.3f}{'T' if p['traced'] else ''}"
                     for p in passes))
    print(f"sim counts: {json.dumps(counts)}; cache (hits, misses): "
          f"{json.dumps(caches)}; digest {digest}")

    table = metrics.end_to_end(untraced, raw["peak_rss_mb"])
    table["failed_ratio"] = (failed / attempted, "ratio",
                             f"{failed} of {attempted} attempted")
    print_table("end-to-end (untraced)", table)
    names = "end_to_end"
    if args.trace:
        layers = metrics.per_layer(untraced, traced, threads)
        print_table("per-layer (traced)", layers)
        split = metrics.workload_split(table["wall_s"][0], layers)
        print(f"-- workload split: largest setup self time "
              f"{split['largest_setup_self']}; circuit.irdrop_s "
              f"{100 * split['irdrop_share_of_wall']:.2f} % of wall_s; "
              f"core.campaign_s {100 * split['campaign_share_of_wall']:.1f} % "
              f"of wall_s; unattributed per job "
              f"{layers['trace.unattributed_s'][0] / len(traced[0]['jobs']):.2e} s")
        table, names = layers, "per_layer"

    reported = {}
    for entry in spec[names]:
        if entry["name"] not in table:
            fail(f"metric {entry['name']} is not computed")
        value, unit, _ = table[entry["name"]]
        if unit != entry["unit"]:
            fail(f"metric {entry['name']}: unit {unit} != {entry['unit']}")
        reported[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    if failed:
        sys.exit(1)
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
