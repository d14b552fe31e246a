"""Arithmetic of the fecim benchmark.

Turns the driver's raw output (per-pass job timings, spans, counters and
result rows; see driver.cpp) into the end-to-end and per-layer metric
tables described in README.md.  Pure functions only, so selftest.py can pin
every formula on hand-made inputs.
"""

import hashlib
import math
import statistics

# Percentiles a latency report may quote, lowest first.  A percentile is
# quoted only when at least MIN_BEYOND samples lie above it.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(sorted_values, p):
    """Nearest-rank p-th percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p * n / 100.0 - 1e-9))


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER,
                                 min_beyond=MIN_BEYOND):
    """Highest ladder percentile with >= min_beyond samples above it, or None."""
    supported = [p for p in ladder if samples_beyond(n, p) >= min_beyond]
    return supported[-1] if supported else None


def merged_length(intervals):
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_times(spans):
    """Duration and self time of every span.

    `spans` are driver records [name, parent, estimate, t0, t1].  A measured
    span covers [t0, t1]; an estimate span has only a duration (t1) and is
    laid end to end with its parent's other estimate children from the
    parent's start.  Self time is the duration minus the part of the
    interval that the children cover, overlaps counted once.  Returns a list
    of (duration, self) in span order.
    """
    intervals = []
    next_anchor = {}
    for name, parent, estimate, t0, t1 in spans:
        if estimate:
            p_t0 = intervals[parent][0]
            start = next_anchor.get(parent, p_t0)
            next_anchor[parent] = start + t1
            intervals.append((start, start + t1))
        else:
            intervals.append((t0, t1))
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(intervals[i])
    out = []
    for (a, b), kids in zip(intervals, children):
        clipped = [(max(a, x), min(b, y)) for x, y in kids if min(b, y) > max(a, x)]
        out.append((b - a, (b - a) - merged_length(clipped)))
    return out


def parallel_efficiency(run_seconds, campaigns):
    """Busy share of the pool: sum of run times / sum of threads x campaign
    wall, over `campaigns` given as (threads, campaign_seconds) pairs."""
    capacity = sum(threads * seconds for threads, seconds in campaigns)
    return sum(run_seconds) / capacity if capacity else 0.0


def objective_gap(best, reference, maximize):
    """Shortfall of `best` against `reference`, relative to |reference|.

    Sense-aware: positive when best trails the reference, negative when it
    beats it, for maximization and minimization alike.  1.0 when no run was
    feasible (best is None or NaN); None when the reference is 0 (no scale).
    """
    if reference == 0:
        return None
    if best is None or math.isnan(best):
        return 1.0
    shortfall = reference - best if maximize else best - reference
    return shortfall / abs(reference)


def pass_digest(jobs):
    """Digest of one pass: every job's result digest, in order."""
    return hashlib.sha256(
        "".join(job["digest"] for job in jobs).encode()).hexdigest()[:32]


def sim_counts(jobs):
    """Exact simulated event counts of one pass."""
    keys = ("iterations", "adc_conversions", "tile_activations",
            "partial_sum_updates")
    return {k: sum(job[k] for job in jobs) for k in keys}


def ok_job(job):
    return job["ok"] and job["completed"] == job["runs"]


def end_to_end(untraced, peak_rss_mb):
    """End-to-end metrics {name: (value, unit, note)} from untraced passes."""
    med = statistics.median
    jobs0 = untraced[0]["jobs"]
    latencies = sorted(j["latency_s"] for p in untraced for j in p["jobs"])
    n = len(latencies)
    quoted = highest_supported_percentile(n)
    note95 = f"n={n}, highest percentile with {MIN_BEYOND} samples beyond: " + (
        f"p{quoted:g}" if quoted else "none (p95 reads as a high-water mark)")
    gaps = [g for g in (objective_gap(j["best"], j["reference"], j["maximize"])
                        for j in jobs0 if j["ok"]) if g is not None]
    completed = sum(j["completed"] for j in jobs0)
    return {
        "wall_s": (med(p["wall_s"] for p in untraced), "s",
                   f"median of {len(untraced)} passes"),
        "setup_s": (med(sum(j["setup_s"] for j in p["jobs"]) for p in untraced),
                    "s", "ingest+encode+warm start+construct, summed per pass"),
        "anneal_iters_per_s": (
            med(sum(j["iterations"] for j in p["jobs"]) /
                sum(j["campaign_s"] for j in p["jobs"]) for p in untraced),
            "1/s", "ledger iterations / run_campaign wall"),
        "jobs_per_s": (med(len(p["jobs"]) / p["wall_s"] for p in untraced),
                       "1/s", ""),
        "job_p50_s": (nearest_rank(latencies, 50.0), "s", f"n={n}"),
        "job_p95_s": (nearest_rank(latencies, 95.0), "s", note95),
        "peak_rss_mb": (peak_rss_mb, "MB", "driver process"),
        "success_rate": (sum(j["successes"] for j in jobs0) / completed
                         if completed else 0.0, "ratio", "over completed runs"),
        "objective_gap": (statistics.fmean(gaps) if gaps else 0.0, "ratio",
                          f"mean over {len(gaps)} jobs with a nonzero reference"),
        "sim_energy_j": (sum(j["energy_sum"] for j in jobs0) / completed
                         if completed else 0.0, "J", "sim, mean per run"),
        "sim_latency_s": (sum(j["time_sum"] for j in jobs0) / completed
                          if completed else 0.0, "s", "sim, mean per run"),
    }


def layer_sums(traced_pass):
    """Per-layer duration and self-time sums of one traced pass, plus the
    durations of its core.run spans."""
    spans = traced_pass["spans"]
    times = span_times(spans)
    total, own = {}, {}
    runs = []
    for (name, _, _, _, _), (duration, self_time) in zip(spans, times):
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + self_time
        if name == "core.run":
            runs.append(duration)
    return total, own, runs


def per_layer(untraced, traced, threads):
    """Per-layer metrics {name: (value, unit, note)} from the traced passes."""
    med = statistics.median
    sums = [layer_sums(p) for p in traced]

    def total(name):
        return med(t.get(name, 0.0) for t, _, _ in sums)

    def own(name):
        return med(o.get(name, 0.0) for _, o, _ in sums)

    runs = sorted(r for _, _, rs in sums for r in rs)
    efficiency = [
        parallel_efficiency(rs, [(min(threads, j["runs"]), j["campaign_s"])
                                 for j in p["jobs"] if j["ok"]])
        for p, (_, _, rs) in zip(traced, sums)]
    conversions = [sim_counts(p["jobs"])["adc_conversions"] for p in traced]
    ns_per_conv = med(1e9 * sum(rs) / c if c else 0.0
                      for (_, _, rs), c in zip(sums, conversions))
    counts = sim_counts(traced[0]["jobs"])
    hits, misses = traced[0]["cache_hits"], traced[0]["cache_misses"]
    wall_t = med(p["wall_s"] for p in traced)
    wall_u = med(p["wall_s"] for p in untraced)
    out = {
        "problems.ingest_s": (total("problems.ingest"), "s", "read_*_file"),
        "problems.encode_s": (total("problems.encode"), "s", "make_*_problem"),
        "problems.encode_self_s": (own("problems.encode"), "s",
                                   "encode minus reference"),
        "problems.reference_s": (total("problems.reference"), "s", "replayed"),
        "problems.warm_start_s": (total("problems.warm_start"), "s", ""),
        "problems.decode_s": (total("problems.decode"), "s", "replayed"),
        "core.construct_s": (total("core.construct"), "s", "make_annealer"),
        "core.construct_self_s": (own("core.construct"), "s",
                                  "construct minus program and IR drop"),
        "crossbar.program_s": (total("crossbar.program"), "s",
                               "ArrayCache build_seconds"),
        "circuit.irdrop_s": (total("circuit.irdrop"), "s", "replayed"),
        "circuit.irdrop_calls": (sum(j["irdrop_calls"] for j in traced[0]["jobs"]),
                                 "count", "ladder solves per pass"),
        "crossbar.cache_hits": (hits, "count", "per pass"),
        "crossbar.cache_misses": (misses, "count", "per pass"),
        "crossbar.cache_hit_ratio": (hits / (hits + misses) if hits + misses
                                     else 0.0, "ratio", ""),
        "core.campaign_s": (total("core.campaign"), "s", ""),
        "core.campaign_self_s": (own("core.campaign"), "s",
                                 "campaign not covered by runs or reduce"),
        "core.run_s_p50": (nearest_rank(runs, 50.0) if runs else 0.0, "s",
                           f"n={len(runs)}"),
        "core.run_s_max": (runs[-1] if runs else 0.0, "s", f"n={len(runs)}"),
        "core.reduce_s": (total("core.reduce"), "s", "reduce_campaign"),
        "core.parallel_efficiency": (med(efficiency), "ratio",
                                     "sum run_s / (threads x campaign_s)"),
        "crossbar.ns_per_conversion": (ns_per_conv, "ns",
                                       "host time per ADC conversion"),
        "core.iterations": (counts["iterations"], "count", "sim, exact"),
        "crossbar.adc_conversions": (counts["adc_conversions"], "count",
                                     "sim, exact"),
        "crossbar.tile_activations": (counts["tile_activations"], "count",
                                      "sim, exact"),
        "crossbar.partial_sum_updates": (counts["partial_sum_updates"], "count",
                                         "sim, exact"),
        "trace.unattributed_s": (own("job"), "s",
                                 "job time outside every layer span"),
        "trace.replay_s": (total("trace.replay"), "s",
                           "standalone replays behind estimate spans"),
        "trace.overhead_s": (wall_t - wall_u, "s",
                             "traced minus untraced pass wall (median)"),
    }
    return out


def workload_split(e2e_wall_s, layers):
    """The facts the workload table claims, from a traced run."""
    setup_self = {
        "problems.ingest": layers["problems.ingest_s"][0],
        "problems.encode": layers["problems.encode_self_s"][0],
        "problems.reference": layers["problems.reference_s"][0],
        "problems.warm_start": layers["problems.warm_start_s"][0],
        "core.construct": layers["core.construct_self_s"][0],
        "crossbar.program": layers["crossbar.program_s"][0],
        "circuit.irdrop": layers["circuit.irdrop_s"][0],
    }
    largest = max(setup_self, key=setup_self.get)
    return {
        "largest_setup_self": largest,
        "irdrop_share_of_wall": layers["circuit.irdrop_s"][0] / e2e_wall_s,
        "campaign_share_of_wall": layers["core.campaign_s"][0] / e2e_wall_s,
    }
