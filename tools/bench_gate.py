#!/usr/bin/env python3
"""Gate hot-path bench smoke runs against the tracked baseline.

Usage: bench_gate.py BASELINE_JSON SMOKE_JSON

Compares every (n, engine) row the two files share, the sampler entry, and
the (n, kind) campaign rows (bench_hotpath emits its n=256 campaign rows in
every mode precisely so the smoke run has baseline rows to land on).  The
"analog-noisy" campaign rows track threads-scaling, a host property: they
gate only when smoke and baseline record the same hardware_threads, and are
printed as tracked-not-gated when the hosts differ.  The "analog-noisy-tiled" engine rows
(schema v5: the noisy sweep over a 4-tile row grid with per-tile ADC
conversions and digital partial-sum accumulation) gate exactly like the
other engine rows -- the smoke run emits its n=256 tiled row so the tiled
hot path is regression-gated alongside the monolithic one.  The
"ingestion" entry (Gset-scale parse + program, new in schema v4) is
tracked for the perf trajectory but never gated: smoke and baseline run it
at different instance sizes, so a ratio between them is meaningless.
Schema v6 adds program_seconds_cached to the ingestion entry (printed as a
cache-hit amortization factor) and the "analog-batch-cached" campaign kind
(repeated identical campaigns through one digest-keyed array cache vs
per-construction programming), which gates like every other campaign row.
Schema v7 adds the "sb-ballistic" campaign kind (simulated-bifurcation
dynamics on the same analog array, parallel vs serial replica scaling);
rows present in the smoke run but absent from the baseline -- the normal
state right after a schema bump, before the baseline is regenerated -- are
printed as tracked-not-gated instead of silently skipped.
Tracked rows print their thread count so cross-host trajectories stay
interpretable.
A row regresses when BOTH signals drop more than the tolerance below the
baseline (default 10%, override with FECIM_BENCH_TOLERANCE=0.15 etc.):

  * speedup        -- optimized / reference ratio; robust to a uniformly
                      slow machine, sensitive to reference-side flukes;
  * absolute opt   -- optimized evals/s, or run-iterations/s for campaign
                      rows; robust to reference flukes, sensitive to
                      machine load.

Requiring both to fall catches real optimized-path regressions (which drag
both signals down) while tolerating the single-signal noise a seconds-scale
smoke run on a busy machine produces.  Exit code 1 on any regression.
"""
import json
import os
import sys


def fmt(value):
    return f"{value:,.0f}" if value >= 1000 else f"{value:.2f}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        smoke = json.load(f)
    tolerance = float(os.environ.get("FECIM_BENCH_TOLERANCE", "0.10"))
    floor = 1.0 - tolerance

    failures = []
    checked = 0

    def check(label, smoke_ratio, base_ratio, smoke_abs, base_abs):
        nonlocal checked
        checked += 1
        ratio_ok = smoke_ratio >= base_ratio * floor
        abs_ok = smoke_abs >= base_abs * floor
        verdict = "ok" if (ratio_ok or abs_ok) else "REGRESSION"
        print(f"  {label:<28} speedup {fmt(smoke_ratio)} vs {fmt(base_ratio)}"
              f" | opt/s {fmt(smoke_abs)} vs {fmt(base_abs)} ... {verdict}")
        if verdict != "ok":
            failures.append(label)

    base_rows = {(r["n"], r["engine"]): r for r in baseline.get("engine_eval", [])}
    for row in smoke.get("engine_eval", []):
        base = base_rows.get((row["n"], row["engine"]))
        if base is None:
            # A row new in this schema (e.g. the v7 sb-ballistic campaign)
            # has nothing to compare against until the baseline is
            # regenerated -- print it so the number is on the record.
            print(f"  n={row['n']} {row['engine']}: speedup "
                  f"{fmt(row['speedup'])}, opt/s "
                  f"{fmt(row['evals_per_sec_optimized'])}"
                  " ... tracked, not gated (no baseline row)")
            continue
        check(f"n={row['n']} {row['engine']}", row["speedup"], base["speedup"],
              row["evals_per_sec_optimized"], base["evals_per_sec_optimized"])

    def campaign_throughput(row):
        wall = row.get("wall_seconds_optimized", 0.0)
        if wall <= 0.0:
            return 0.0
        return row["runs"] * row["iterations"] / wall

    base_campaigns = {(r["n"], r.get("kind", "analog")): r
                      for r in baseline.get("campaign", [])}
    same_host = (baseline.get("hardware_threads") is not None
                 and baseline.get("hardware_threads")
                 == smoke.get("hardware_threads"))
    def topology(row):
        """Thread count of a campaign row, e.g. '4t'."""
        return f"{row.get('threads', '?')}t"

    for row in smoke.get("campaign", []):
        kind = row.get("kind", "analog")
        base = base_campaigns.get((row["n"], kind))
        if base is None:
            print(f"  campaign n={row['n']} {kind} [{topology(row)}]: speedup "
                  f"{fmt(row['speedup'])}, opt run-iters/s "
                  f"{fmt(campaign_throughput(row))}"
                  " ... tracked, not gated (no baseline row)")
            continue
        if kind in ("analog-noisy", "sb-ballistic") and not same_host:
            # These rows' speedup is a host property -- replica scaling
            # (threads=N vs threads=1) -- not a property of the code, so
            # they gate only when both files record the same
            # hardware_threads.  On a different host they would fail
            # spuriously; print them (with both thread counts) for the
            # trajectory instead.
            print(f"  campaign n={row['n']} {kind} [{topology(row)}]: speedup "
                  f"{fmt(row['speedup'])} vs {fmt(base['speedup'])} "
                  f"(baseline from a {topology(base)} host)"
                  " ... tracked, not gated (hardware_threads differ)")
            continue
        check(f"campaign n={row['n']} {kind}",
              row["speedup"], base["speedup"],
              campaign_throughput(row), campaign_throughput(base))

    if "ingestion" in smoke:
        row = smoke["ingestion"]
        cached = row.get("program_seconds_cached", 0.0)
        cold = row.get("program_seconds", 0.0)
        hit = (f", cache-hit reprogram {cold / cached:,.0f}x faster"
               if cached > 0.0 and cold > 0.0 else "")
        print(f"  ingestion n={row['n']} m={row['edges']}: "
              f"{fmt(row.get('edges_per_sec_parse', 0.0))} edges/s parse"
              f"{hit} ... tracked, not gated")

    if "sampler" in smoke and "sampler" in baseline:
        check("normal sampler", smoke["sampler"]["speedup"],
              baseline["sampler"]["speedup"],
              smoke["sampler"]["normals_per_sec_ziggurat"],
              baseline["sampler"]["normals_per_sec_ziggurat"])

    if checked == 0:
        print("bench_gate: no comparable rows between smoke and baseline",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_gate: {len(failures)} regression(s) beyond "
              f"{tolerance:.0%}: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"bench_gate: {checked} row(s) within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
