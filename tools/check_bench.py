#!/usr/bin/env python3
"""Bench regression gate: compare fresh BENCH_*.json against committed baselines.

Usage (what CI runs; works identically from a local checkout):

    python3 tools/check_bench.py \
        --pair BENCH_statevector.json build/BENCH_statevector.json \
        --pair BENCH_pipeline.json    build/BENCH_pipeline.json \
        --report build/bench_diff.md

Each --pair is (committed baseline, freshly produced file). The gate fails
(exit 1) on a >25% regression (--threshold) of any gated metric, and the
full comparison table is written to --report for upload as a CI artifact.

Gating rules, tuned so the gate is trustworthy across machines:

* Quality metrics (CNOT counts, solver values, ...) are deterministic
  functions of the committed seeds -- femto's pipeline guarantees
  thread-count-invariant results -- so they are gated at the threshold,
  scaled by |baseline| (handles negative energies).
* Direction: metrics whose name contains speedup/scaling/throughput/value/
  saving are higher-is-better; everything else is lower-is-better.
* Raw wall-clock fields (median_s/min_s/max_s) and wall-clock-derived
  ratios (scaling_*/throughput_*) are machine- and load-dependent and
  skipped unless --include-timings is given (useful locally on the same
  box).
* Metrics listed in ABS_FLOORS are gated by an absolute floor instead of a
  ratio: e.g. statevector kernel speedups must stay >= 1.3x on ANY machine,
  but are not required to match the reference machine's 5-7x.
* Metrics listed in ABS_EXACT must equal a pinned value exactly
  (determinism anchors, e.g. the all-to-all hardware target's water CNOT
  count == the committed Table-1 Adv baseline).
* Metrics listed in BASELINE_EXACT must equal the committed baseline's
  value exactly: every Table-1 count (JW/BK/GT/Adv of all 14 rows), every
  per-target count of bench_targets, and bench_solvers' sort_advanced
  savings.
* metrics prefixed info_ (cache hit counters etc.) are informational only.
* A section or metric present in the baseline but missing from the fresh
  file fails the gate (coverage must not silently disappear); pass
  --allow-missing to downgrade that to a warning.
"""

import argparse
import fnmatch
import json
import sys

TIMING_KEYS = ("median_s", "min_s", "max_s", "mean_s", "stddev_s")
# Wall-clock-derived ratio metrics (t_ref / t_new): machine- and load-
# dependent like the raw timings, so gated only with --include-timings.
TIMING_METRIC_HINTS = ("scaling", "throughput")
HIGHER_BETTER_HINTS = ("speedup", "scaling", "throughput", "value", "saving",
                       "improve")
SKIP_PREFIXES = ("info_", "best_restart")

# suite -> {metric glob: absolute floor}. Overrides ratio gating.
ABS_FLOORS = {
    "statevector": {"*_speedup": 1.3},
    # Circuit verification must stay comfortably real-time on any machine
    # (the reference machine does 200-8000 verified circuits/s; the floor
    # leaves ~8x headroom on the slowest section).
    "verify": {"verified_per_s": 25.0},
    # Compile hot path (bench_compile_hot), forced-portable vs best dispatch
    # level in the same process: simd_gtsp_speedup for whole GTSP GA solves
    # on the cluster DP's four double lanes (reference machine ~3.3x). The
    # floor only requires that SIMD dispatch keeps paying. The GF(2) word
    # ops have one implementation, so they have no ratio to gate.
    "compile_hot": {"simd_gtsp_speedup": 1.5},
    # Serving compiled segments from the mmap'd compilation database must
    # stay at memory speed (binary search + circuit decode). The reference
    # machine does >1M lookups/s; the floor leaves ~20x headroom.
    "db": {"warm_lookups_per_s": 50000.0},
    # End-to-end daemon serving (bench_service drives a real femtod over
    # its socket): the reference machine serves ~30-75 plans/s through the
    # wire protocol; the floor only guards against pathological collapse
    # (a stuck scheduler or a protocol round trip gone quadratic).
    "service": {"plans_per_s": 2.0},
    # Tracing overhead contract (bench_pipeline trace_overhead section):
    # the median over 11 alternating pairs of cpu_untraced / cpu_traced for
    # the same seeded one-worker compile, in this process's CPU time, so it
    # holds on any machine and under other load. The disabled path is one
    # relaxed atomic load, and the enabled path only buffers coarse spans;
    # the floor allows ~10% more CPU before failing (ratio 0.9 == traced
    # compile costing 1/0.9 ~ 1.11x the untraced CPU).
    "pipeline": {"trace_overhead_ratio": 0.9},
}

# suite -> {"section/metric" glob: pinned value}. The metric must equal the
# pinned value EXACTLY (floor and ceiling at once). Used for determinism
# anchors: the all-to-all hardware target's water CNOT count must reproduce
# the committed Table-1 Adv baseline (BENCH_table1.json H2O(14) adv = 108)
# bit-for-bit -- femto compiles are pure functions of the committed seeds,
# so any drift here is a real behavior change, not noise.
ABS_EXACT = {
    "targets": {"targets/H2O(14)/all_to_all_cnot/model_cnots": 108.0},
    # The SIMD layer's bit-identity contract: switching the dispatch level
    # (portable/AVX2) must never change a GTSP solution. bench_compile_hot
    # recomputes the cross-level comparison on every run; any value but 1.0
    # means a lane path's per-element op tree diverged from the portable
    # reference. The statevector kernels have one path; the KernelBits
    # tests in test_statevector_kernels pin their bytes.
    "compile_hot": {"*/simd_bit_identical": 1.0},
    # The compilation database's serving path, end to end (bench_db): a
    # service::Service backed by a .fdb of fresh compiles must answer every
    # stored request with the stored bytes after the file hit's decode and
    # re-encode (warm_equals_cold), and every answer must carry a passed
    # verification certificate (warm_verified). The file comes from the same
    # binary, so these pin the serving round trip, not staleness: a file
    # from another build is refused on open by db::kCompileContract, which
    # test_db's CompileContract test ties to the served bytes.
    "db": {"*/warm_equals_cold": 1.0, "*/warm_verified": 1.0},
    # The daemon determinism + lifecycle contract, end to end over the wire
    # (bench_service boots femtod and byte-compares every served response
    # against the same request compiled in-process): cold serving and
    # coalescing must be bit-identical, a daemon serving from a .fdb of
    # those in-process responses must hand them back unchanged, deadlines
    # must actually fire, and graceful shutdown must drain cleanly.
    "service": {
        "*/served_equals_inprocess": 1.0,
        "*/coalesced_identical": 1.0,
        "*/db_warm_equals_inprocess": 1.0,
        "*/deadline_enforced": 1.0,
        "*/clean_shutdown": 1.0,
        # The resilience contract (bench_service chaos section): the
        # fault-injection framework's disabled path must stay allocation-
        # free, injected short-write/fsync faults must never corrupt the
        # published database, and a retrying client fleet driven through
        # injected connection drops must land byte-identical responses.
        "*/failpoint_disabled_zero_alloc": 1.0,
        "*/chaos_db_survived": 1.0,
        "*/chaos_responses_identical": 1.0,
    },
    # The tracing contract (bench_pipeline trace_overhead section): the
    # Chrome trace-event JSON exported by the traced compile must parse
    # (trace_valid_json) and the traced compile must produce a circuit
    # bit-identical to the untraced one (trace_bit_identical) -- tracing
    # observes the pipeline, it never steers it.
    "pipeline": {"*/trace_valid_json": 1.0, "*/trace_bit_identical": 1.0},
}

# suite -> "section/metric" globs whose fresh value must EQUAL the committed
# baseline's (floor and ceiling at once). Compiles are pure functions of the
# committed seeds, so a count that moves in either direction is a behavior
# change: a faster search must reproduce every Table-1 cell (the paper's
# "improve %" is measured against the GT column) and every per-target cost.
# A deliberate change re-commits the baseline in the same change. The
# solvers entries are sort_advanced's results on the water(8) JW blocks (the
# default model, re-costed in XX pulses, and on a routed line): its GTSP
# instance build must reproduce them exactly.
BASELINE_EXACT = {
    "table1": ("table1/*/jw", "table1/*/bk", "table1/*/gt", "table1/*/adv"),
    "targets": ("targets/*/model_cnots", "targets/*/model_cost",
                "targets/*/device_cost", "targets/*/routed_swaps"),
    "solvers": ("gtsp/*/sorted_saving", "gtsp/*/sorted_pulses_saving",
                "gtsp/*/sorted_surrogate_saving"),
}


def is_higher_better(name):
    return any(h in name for h in HIGHER_BETTER_HINTS)


def abs_floor_for(suite, metric):
    for pattern, floor in ABS_FLOORS.get(suite, {}).items():
        if fnmatch.fnmatch(metric, pattern):
            return floor
    return None


def abs_exact_for(suite, section, metric):
    for pattern, value in ABS_EXACT.get(suite, {}).items():
        if fnmatch.fnmatch(f"{section}/{metric}", pattern):
            return value
    return None


def baseline_exact_for(suite, section, metric):
    return any(fnmatch.fnmatch(f"{section}/{metric}", pattern)
               for pattern in BASELINE_EXACT.get(suite, ()))


def load(path):
    with open(path) as f:
        data = json.load(f)
    sections = {}
    for s in data.get("sections", []):
        entry = dict(s.get("metrics", {}))
        for key in TIMING_KEYS:
            if key in s:
                entry[key] = s[key]
        sections[s["name"]] = entry
    return data.get("suite", "?"), sections


def compare(suite, base_sections, fresh_sections, args, rows):
    failures = []
    for section, base_metrics in sorted(base_sections.items()):
        fresh_metrics = fresh_sections.get(section)
        if fresh_metrics is None:
            rows.append((suite, section, "-", "-", "-", "-",
                         "MISSING-SECTION"))
            if not args.allow_missing:
                failures.append(f"{suite}/{section}: section missing")
            continue
        for metric, base_value in sorted(base_metrics.items()):
            timing = (metric in TIMING_KEYS
                      or any(h in metric for h in TIMING_METRIC_HINTS))
            if timing and not args.include_timings:
                continue
            if any(metric.startswith(p) for p in SKIP_PREFIXES):
                continue
            if metric not in fresh_metrics:
                rows.append((suite, section, metric, f"{base_value:g}", "-",
                             "-", "MISSING"))
                if not args.allow_missing:
                    failures.append(f"{suite}/{section}/{metric}: missing")
                continue
            fresh_value = fresh_metrics[metric]
            floor = abs_floor_for(suite, metric)
            exact = abs_exact_for(suite, section, metric)
            scale = abs(base_value)
            if exact is not None:
                ok = fresh_value == exact
                detail = f"== {exact:g} (exact pin)"
            elif baseline_exact_for(suite, section, metric):
                ok = fresh_value == base_value
                detail = f"== baseline {base_value:g} (exact pin)"
            elif floor is not None:
                ok = fresh_value >= floor
                detail = f">= {floor:g} (abs floor)"
            elif timing or not is_higher_better(metric):
                # lower is better (counts, energies, wall time)
                ok = fresh_value <= base_value + args.threshold * scale
                detail = f"<= base + {args.threshold:.0%}"
            else:
                ok = fresh_value >= base_value - args.threshold * scale
                detail = f">= base - {args.threshold:.0%}"
            delta = (f"{(fresh_value - base_value) / scale:+.1%}"
                     if scale > 0 else "n/a")
            status = "ok" if ok else "FAIL"
            rows.append((suite, section, metric, f"{base_value:g}",
                         f"{fresh_value:g}", delta, status))
            if not ok:
                failures.append(
                    f"{suite}/{section}/{metric}: {base_value:g} -> "
                    f"{fresh_value:g} violates {detail}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pair", nargs=2, action="append", required=True,
                        metavar=("BASELINE", "FRESH"),
                        help="baseline JSON and fresh JSON to compare")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression allowed (default 0.25)")
    parser.add_argument("--include-timings", action="store_true",
                        help="also gate median_s/min_s/max_s (same-machine "
                        "comparisons only)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="warn instead of fail on missing sections")
    parser.add_argument("--report", default="bench_diff.md",
                        help="markdown report path (CI artifact)")
    args = parser.parse_args()

    rows = []
    failures = []
    for base_path, fresh_path in args.pair:
        base_suite, base_sections = load(base_path)
        fresh_suite, fresh_sections = load(fresh_path)
        if base_suite != fresh_suite:
            failures.append(
                f"suite mismatch: {base_path} is '{base_suite}' but "
                f"{fresh_path} is '{fresh_suite}'")
            continue
        failures += compare(base_suite, base_sections, fresh_sections, args,
                            rows)

    lines = ["# Bench regression report", "",
             f"threshold: {args.threshold:.0%}  "
             f"(timings gated: {args.include_timings})", "",
             "| suite | section | metric | baseline | fresh | delta | status |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    lines.append("")
    if failures:
        lines.append("## FAILURES")
        lines += [f"- {f}" for f in failures]
    else:
        lines.append("All gated metrics within threshold.")
    report = "\n".join(lines) + "\n"
    with open(args.report, "w") as f:
        f.write(report)
    print(report)
    if failures:
        print(f"check_bench: {len(failures)} gated metric(s) regressed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
