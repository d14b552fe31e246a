#!/usr/bin/env python3
"""Gate a bench_hotpath run against the tracked baseline.

Usage: bench_gate.py BASELINE_JSON RUN_JSON

Each bench_hotpath row is the median of interleaved A/B throughput ratios
(an optimized path over its reference).  A row fails when its median ratio
is below 0.85 x the baseline row's median, or when a baseline row is
missing from the run.  Exits 1 on any failure.
"""
import json
import sys

FLOOR = 0.85


def medians(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {row["name"]: row["median_ratio"] for row in rows}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = medians(sys.argv[1])
    run = medians(sys.argv[2])

    failures = []
    for name, base in baseline.items():
        ratio = run.get(name)
        ok = ratio is not None and ratio >= FLOOR * base
        shown = "missing" if ratio is None else f"{ratio:.2f}x"
        print(f"  {name:<20} {shown:>8} vs baseline {base:.2f}x"
              f" ... {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    if failures:
        print(f"bench_gate: {len(failures)} row(s) missing or below {FLOOR} x"
              f" baseline: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"bench_gate: {len(baseline)} row(s) at or above {FLOOR} x baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
