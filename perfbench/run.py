#!/usr/bin/env python3
"""Repository benchmark: Table-1 compile suites and a femtod closed loop.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is table1-baseline, table1-adv or serve (README.md says why each exists).
The first run in a checkout builds perfbench and femtod from the checkout's
sources into .bench_build/perfbench. A run replays the workload's input in
passes for S seconds and prints its end-to-end metrics; --trace 1 instead
runs one untraced and one traced pass and prints the per-layer profile.
Every plan must be certified, warm repeats byte-identical and the traced
counts equal the untraced ones; otherwise the run exits 1. The last stdout
line is the result as JSON.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("table1-baseline", "table1-adv", "serve")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def build():
    """Configures (once) and builds perfbench and femtod; returns their
    paths relative to the checkout root."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "femtod", "-j", "2"], check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "femto", "femtod"))


def run_binary(argv):
    """Runs perfbench in its own process group (its femtod children join
    it) and kills whatever of the group is left once it returns."""
    proc = subprocess.Popen(argv, stdout=sys.stderr, preexec_fn=os.setpgrp)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Orphaned group members are reaped by init; wait until none is left.
        for _ in range(200):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    if code is None:
        raise RuntimeError(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"perfbench exited with code {code}")


def load_trace(path):
    with open(path) as f:
        return [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    unit = units()
    for need in ("src/core/pipeline.hpp", "tools/femtod.cpp", "CMakeLists.txt"):
        if not os.path.exists(need):
            log(f"perfbench: {need} not found; run from a femto checkout")
            return 2
    try:
        perfbench, femtod = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    work = os.path.join(".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        raw_path = os.path.join(work, "raw.json")
        argv = [perfbench, args.workload, "--out", raw_path,
                "--seed", str(args.seed),
                "--seconds", str(0 if args.trace else args.seconds)]
        if args.workload == "serve":
            argv += ["--femtod", femtod, "--socket",
                     os.path.join(work, "femtod.sock")]
        if args.trace:
            argv += ["--trace-out", os.path.join(work, "bench-trace.json"),
                     "--trace-dir", os.path.join(work, "traces")]
        try:
            run_binary(argv)
        except RuntimeError as e:
            log(f"perfbench: {e}")
            return 2
        with open(raw_path) as f:
            raw = json.load(f)

        problems = analysis.problems(raw)
        if args.trace:
            daemon = [load_trace(p) for p in
                      sorted(glob.glob(os.path.join(work, "traces", "*.json")))]
            bench_events = load_trace(os.path.join(work, "bench-trace.json"))
            metrics = analysis.per_layer(raw, bench_events, daemon)
            _, _, profile = analysis.fold(bench_events, daemon)
            log("self time per span (traced pass): " + ", ".join(
                f"{k} {v:.4f} s" for k, v in
                sorted(profile.items(), key=lambda kv: -kv[1])))
        else:
            metrics = analysis.end_to_end(raw)
            shown = dict(metrics)
            if raw["workload"] == "serve":
                shown.update(analysis.latency(raw))
            else:
                first = raw["passes"][0]
                if raw["workload"] == "table1-adv":
                    shown["device_cost_total"] = first["device_cost_total"]
                shown["model_mismatch_cells"] = first["model_mismatch_cells"]
            shown["host.mem_probe_s"] = raw["mem_probe_s"]
            for name, value in shown.items():
                print(f"{args.workload} {name} {value:.6g} {unit[name]}")
            print(f"{args.workload} passes {len(raw['passes'])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        log(f"perfbench: INCORRECT: {p}")
    attempted = sum(p["attempted"] for p in raw["passes"])
    failed = attempted - sum(p["certified"] for p in raw["passes"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
