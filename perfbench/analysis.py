"""Pure functions that turn perfbench's raw measurements into metrics.

run.py feeds them the JSON the perfbench binary writes and the Chrome
traces of the traced pass; test_perfbench.py checks them on hand-built
inputs. README.md says what each metric means and what should move it.
"""

import math
import statistics
from collections import defaultdict

# Span name -> per-layer self-time metric. These are the spans src/ emits
# today; a layer without spans (PSO, Held-Karp, synthesis, routing) shows up
# in the self time of the span around it.
LAYER_SPANS = {
    "stage_plan": "core.stage_plan_s",
    "stage_transform": "core.stage_transform_s",
    "stage_emit": "core.stage_emit_s",
    "gamma_sa": "opt.gamma_sa_s",
    "gtsp_ga": "opt.gtsp_ga_s",
    "verify": "verify.check_s",
}
# Spans that attribute time to a layer. The envelopes (compile_request,
# restart, run, request) are glue: their self time is unattributed.
COVER_SPANS = set(LAYER_SPANS) | {"queue_wait"}

# Counts that must repeat exactly between the passes of one run, traced or
# not. Cache hits are left out for serve: which cold request fills the
# shared synthesis cache first depends on how the two clients interleave.
PASS_COUNTS = ["attempted", "done", "certified", "cnot_total",
               "device_cost_total", "model_mismatch_cells", "gates_total",
               "routed_swaps", "dense_fallbacks"]
EXACT_COUNTERS = ["solver.sa_steps", "solver.gtsp_generations",
                  "solver.gtsp_solves", "pipeline.restarts_completed",
                  "service.works_run", "service.coalesced", "service.rejected"]
CACHE_COUNTERS = ["cache.l1_hits", "cache.misses", "cache.l2_hits"]


def percentiles(samples, tail_pct=90, min_beyond=10):
    """Return (p50, p<tail_pct>, sample count), nearest-rank.

    Refuses (ValueError) when fewer than `min_beyond` samples lie beyond the
    tail percentile, so a tail is never read off a handful of points.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = (tail_pct * n + 99) // 100  # ceil(tail_pct / 100 * n)
    if n - rank < min_beyond:
        raise ValueError(f"p{tail_pct} of {n} samples has only {n - rank} "
                         f"beyond it; need {min_beyond}")
    return xs[(n + 1) // 2 - 1], xs[rank - 1], n


def self_times(events):
    """Seconds of self time per span name.

    A span's self time is its duration minus the spans nested directly
    inside it on the same thread. `events` are Chrome "X" events of one
    trace (one tracer: thread ids and timestamps share its frame).
    """
    out = defaultdict(float)
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, dur_us, child_us]
        for e in evs:
            end = e["ts"] + e["dur"]
            while stack and (e["ts"] >= stack[-1][0] or end > stack[-1][0]):
                _, name, dur, child = stack.pop()
                out[name] += (dur - child) * 1e-6
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([end, e["name"], e["dur"], 0])
        for _, name, dur, child in stack:
            out[name] += (dur - child) * 1e-6
    return dict(out)


def _union(intervals):
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def covered_us(events, within=None):
    """Microseconds covered by at least one COVER_SPANS span, counted only
    inside the `within` intervals when given."""
    merged = _union((e["ts"], e["ts"] + e["dur"]) for e in events
                    if e["name"] in COVER_SPANS)
    if within is None:
        return sum(hi - lo for lo, hi in merged)
    total = 0
    for lo, hi in within:
        for mlo, mhi in merged:
            total += max(0, min(hi, mhi) - max(lo, mlo))
    return total


def fold(bench_events, daemon_traces):
    """Per-layer self times and the unattributed share of a traced pass.

    `bench_events`: the benchmark process's own trace (bench.fixture plus
    bench.cell around each compile() or bench.request around each round
    trip; in-process compiles add their spans here). `daemon_traces`: one
    event list per femtod request trace. Traced time is the benchmark's own
    spans; bench.fixture counts as covered (it times the chem layer).
    """
    per_name = defaultdict(float)
    for events in [bench_events] + list(daemon_traces):
        for name, s in self_times(events).items():
            per_name[name] += s
    fixture = [e for e in bench_events if e["name"] == "bench.fixture"]
    calls = [(e["ts"], e["ts"] + e["dur"]) for e in bench_events
             if e["name"] in ("bench.cell", "bench.request")]
    traced = sum(e["dur"] for e in fixture) + sum(hi - lo for lo, hi in calls)
    covered = sum(e["dur"] for e in fixture) + covered_us(bench_events, calls)
    covered += sum(covered_us(events) for events in daemon_traces)
    unattributed = 1.0 - covered / traced if traced > 0 else 0.0
    layers = {metric: per_name.get(span, 0.0)
              for span, metric in LAYER_SPANS.items()}
    return layers, max(0.0, unattributed), dict(per_name)


def pass_counts(p, serve):
    counters = EXACT_COUNTERS + ([] if serve else CACHE_COUNTERS)
    out = {k: p[k] for k in PASS_COUNTS}
    out.update({k: p["counters"][k] for k in counters})
    return out


def problems(raw):
    """Reasons the run's outputs are not correct; empty when they are."""
    serve = raw["workload"] == "serve"
    passes = [(f"pass {i}", p) for i, p in enumerate(raw["passes"])]
    if "traced_pass" in raw:
        passes.append(("traced pass", raw["traced_pass"]))
    out = []
    reference = pass_counts(passes[0][1], serve)
    for label, p in passes:
        if p["certified"] != p["attempted"]:
            out.append(f"{label}: {p['attempted'] - p['certified']} of "
                       f"{p['attempted']} plans not certified")
        if p["inconsistent"]:
            out.append(f"{label}: {p['inconsistent']} plans report a count "
                       "their circuit does not have")
        if p.get("repeat_mismatches"):
            out.append(f"{label}: {p['repeat_mismatches']} warm repeats "
                       "differ from their first answer")
        if p.get("clean_shutdown") is False:
            out.append(f"{label}: femtod did not shut down cleanly")
        counts = pass_counts(p, serve)
        out += [f"{label}: {k} = {counts[k]}, pass 0 had {v}"
                for k, v in reference.items() if counts[k] != v]
    return out


def _share(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """The gated metrics: medians over the run's untraced passes."""
    passes = raw["passes"]
    wall = statistics.median(p["wall_s"] for p in passes)
    setup = statistics.median(raw["fixture_s"])
    if raw["boot_s"]:
        setup += statistics.median(raw["boot_s"])
    if raw["workload"] == "serve":
        rss_kb = statistics.median(p["peak_rss_kb"] for p in passes)
    else:
        rss_kb = raw["peak_rss_kb"]
    attempted = sum(p["attempted"] for p in passes)
    return {
        "wall_s": wall,
        "plans_per_s": passes[0]["certified"] / wall,
        "setup_s": setup,
        "cnot_total": passes[0]["cnot_total"],
        "verified_share": _share(sum(p["certified"] for p in passes),
                                 attempted),
        "ok_share": _share(sum(p["done"] for p in passes), attempted),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def latency(raw):
    """Client latency percentiles of serve's cold and warm requests, pooled
    over the untraced passes; zeros for the table workloads."""
    out = {}
    for cls in ("cold", "warm"):
        samples = [x for p in raw["passes"] for x in p.get(cls + "_s", [])]
        p50 = p90 = 0.0
        if raw["workload"] == "serve":
            p50, p90, _ = percentiles(samples)
        out.update({f"{cls}_p50_s": p50, f"{cls}_p90_s": p90,
                    f"{cls}_samples": len(samples)})
    return out


def per_layer(raw, bench_events, daemon_traces):
    """The per-layer profile of a traced run (first untraced pass for the
    timers and counts, the traced pass for the span self times)."""
    p = raw["passes"][0]
    c = p["counters"]
    out = {
        "chem.fixture_s": statistics.median(raw["fixture_s"]),
        "service.boot_s": (statistics.median(raw["boot_s"])
                           if raw["boot_s"] else 0.0),
    }
    for timer in ("core.column_jw_s", "core.column_bk_s", "core.column_gt_s",
                  "core.target_all_to_all_cnot_s",
                  "core.target_trapped_ion_xx_s", "core.target_linear_nn_s"):
        out[timer] = p.get("timers", {}).get(timer, 0.0)
    layers, unattributed, _ = fold(bench_events, daemon_traces)
    out.update(layers)
    lookups = sum(c[k] for k in CACHE_COUNTERS)
    request_s = c["service.request_latency_s"]
    queue_s = c["service.queue_wait_s"]
    out.update({
        "opt.sa_steps": c["solver.sa_steps"],
        "opt.gtsp_generations": c["solver.gtsp_generations"],
        "opt.gtsp_solves": c["solver.gtsp_solves"],
        "core.restarts_completed": c["pipeline.restarts_completed"],
        "synth.cache_hit_ratio": _share(c["cache.l1_hits"], lookups),
        "synth.gates_total": p["gates_total"],
        "circuit.routed_swaps": p["routed_swaps"],
        "verify.dense_fallbacks": p["dense_fallbacks"],
        "device_cost_total": p["device_cost_total"],
        "model_mismatch_cells": p["model_mismatch_cells"],
        "service.queue_wait_s": queue_s,
        "service.run_s": request_s - queue_s,
        "service.wire_s": (p["round_trip_total_s"] - request_s
                           if "round_trip_total_s" in p else 0.0),
        "service.works_run": c["service.works_run"],
        "service.coalesced": c["service.coalesced"],
        "service.rejected": c["service.rejected"],
    })
    out.update(latency(raw))
    out["trace.unattributed_share"] = unattributed
    out["trace.overhead_ratio"] = raw["traced_pass"]["wall_s"] / p["wall_s"]
    out["host.mem_probe_s"] = raw["mem_probe_s"]
    return out
