"""Tests of the benchmark itself: percentiles, trace folding, the
correctness checks, and the seeded serve stream.

    python3 perfbench/test_perfbench.py

The stream test builds perfbench first (as run.py would) when needed.
"""

import copy
import json
import os
import random
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402
import run  # noqa: E402


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_shuffled_samples(self):
        xs = list(range(1, 101))
        random.Random(0).shuffle(xs)
        self.assertEqual(analysis.percentiles(xs), (50, 90, 100))

    def test_odd_count_and_wider_tail(self):
        self.assertEqual(analysis.percentiles(range(1, 112)), (56, 100, 111))

    def test_refuses_tail_with_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            analysis.percentiles(range(99))
        with self.assertRaises(ValueError):
            analysis.percentiles([0.1] * 20)

    def test_floats(self):
        xs = [0.001 * i for i in range(200)]
        p50, p90, n = analysis.percentiles(xs)
        self.assertAlmostEqual(p50, 0.099)
        self.assertAlmostEqual(p90, 0.179)
        self.assertEqual(n, 200)


class FoldTest(unittest.TestCase):
    # One compile() as the in-process workloads trace it: the benchmark's
    # cell span on the calling thread, the restart job on a pool thread.
    CELL = [
        span("bench.cell", 0, 1000),
        span("compile_request", 10, 980),
        span("restart", 20, 960, tid=1),
        span("stage_plan", 30, 70, tid=1),
        span("stage_transform", 100, 700, tid=1),
        span("gamma_sa", 200, 100, tid=1),
        span("gtsp_ga", 300, 400, tid=1),
        span("stage_emit", 800, 100, tid=1),
        span("verify", 900, 50, tid=1),
    ]

    def test_self_times_subtract_direct_children_only(self):
        t = analysis.self_times(self.CELL)
        self.assertAlmostEqual(t["stage_transform"], 200e-6)
        self.assertAlmostEqual(t["gtsp_ga"], 400e-6)
        self.assertAlmostEqual(t["gamma_sa"], 100e-6)
        self.assertAlmostEqual(t["restart"], (960 - 70 - 700 - 100 - 50) * 1e-6)
        # The calling thread waits: its span keeps the time as self time.
        self.assertAlmostEqual(t["compile_request"], 980e-6)
        self.assertAlmostEqual(t["bench.cell"], 20e-6)

    def test_adjacent_spans_are_siblings(self):
        t = analysis.self_times([span("a", 0, 10), span("b", 10, 10)])
        self.assertEqual(sorted(t), ["a", "b"])
        self.assertAlmostEqual(t["a"], 10e-6)
        self.assertAlmostEqual(t["b"], 10e-6)

    def test_unattributed_share_in_process(self):
        events = self.CELL + [span("bench.fixture", 2000, 500)]
        layers, unattributed, _ = analysis.fold(events, [])
        # Layer spans cover [30, 950] of the 1000 us cell; the fixture is
        # covered whole.
        self.assertAlmostEqual(unattributed, 80 / 1500)
        self.assertAlmostEqual(layers["core.stage_plan_s"], 70e-6)
        self.assertAlmostEqual(layers["verify.check_s"], 50e-6)

    def test_unattributed_share_served(self):
        client = [span("bench.request", 0, 500), span("bench.request", 0, 300,
                                                      tid=1)]
        daemon = [
            [span("request", 0, 450), span("queue_wait", 0, 100),
             span("run", 100, 350), span("compile_request", 100, 340),
             span("stage_transform", 110, 300, tid=2)],
            [span("request", 0, 250), span("run", 0, 250),
             span("stage_emit", 10, 200, tid=1)],
        ]
        layers, unattributed, profile = analysis.fold(client, daemon)
        self.assertAlmostEqual(unattributed, 1 - (100 + 300 + 200) / 800)
        self.assertAlmostEqual(layers["core.stage_emit_s"], 200e-6)
        self.assertAlmostEqual(profile["queue_wait"], 100e-6)


def raw_pass(**over):
    p = {"wall_s": 1.0, "attempted": 4, "done": 4, "certified": 4,
         "cnot_total": 100, "device_cost_total": 0,
         "model_mismatch_cells": 0, "gates_total": 300, "routed_swaps": 0,
         "dense_fallbacks": 0, "inconsistent": 0,
         "counters": {k: 1 for k in analysis.EXACT_COUNTERS
                      + analysis.CACHE_COUNTERS}}
    p.update(over)
    return p


class ProblemsTest(unittest.TestCase):
    def raw(self):
        return {"workload": "table1-adv", "passes": [raw_pass(), raw_pass()],
                "traced_pass": raw_pass(wall_s=1.1)}

    def test_clean_run(self):
        self.assertEqual(analysis.problems(self.raw()), [])

    def test_uncertified_plan(self):
        raw = self.raw()
        raw["passes"][1]["certified"] = 3
        self.assertTrue(any("not certified" in p
                            for p in analysis.problems(raw)))

    def test_traced_count_differs(self):
        raw = self.raw()
        raw["traced_pass"]["counters"] = copy.deepcopy(
            raw["traced_pass"]["counters"])
        raw["traced_pass"]["counters"]["solver.sa_steps"] = 2
        self.assertEqual(analysis.problems(raw),
                         ["traced pass: solver.sa_steps = 2, pass 0 had 1"])

    def test_warm_repeat_differs(self):
        raw = self.raw()
        raw["workload"] = "serve"
        raw["passes"][0]["repeat_mismatches"] = 1
        self.assertTrue(any("warm repeats" in p
                            for p in analysis.problems(raw)))

    def test_failures_stay_in_the_denominator(self):
        raw = self.raw()
        raw.update(fixture_s=[0.1], boot_s=[], peak_rss_kb=1024)
        raw["passes"][0].update(done=3, certified=3)
        e2e = analysis.end_to_end(raw)
        self.assertAlmostEqual(e2e["ok_share"], 7 / 8)
        self.assertAlmostEqual(e2e["verified_share"], 7 / 8)


class MetricNamesTest(unittest.TestCase):
    """run.py must print exactly the metrics BENCHMARK.json declares."""

    def test_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        raw = {"workload": "serve", "fixture_s": [0.1], "boot_s": [0.01],
               "peak_rss_kb": 1024, "mem_probe_s": 0.3,
               "passes": [raw_pass(timers={}, cold_s=[0.1] * 100,
                                   warm_s=[0.1] * 100,
                                   round_trip_total_s=20.0,
                                   peak_rss_kb=2048)],
               "traced_pass": raw_pass()}
        for p in (raw["passes"][0], raw["traced_pass"]):
            p["counters"] = {**p["counters"], "service.request_latency_s": 9.0,
                             "service.queue_wait_s": 4.0}
        got = {"end_to_end": analysis.end_to_end(raw),
               "per_layer": analysis.per_layer(raw, [], [])}
        for kind, metrics in got.items():
            self.assertEqual(list(metrics), [m["name"] for m in spec[kind]])


class StreamTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(run.ROOT)
        cls.perfbench, _ = run.build()

    def stream(self, seed):
        return subprocess.run([self.perfbench, "stream", "--seed", str(seed)],
                              check=True, capture_output=True).stdout

    def test_same_seed_same_bytes_fixed_counts(self):
        a = self.stream(7)
        self.assertEqual(a, self.stream(7))
        self.assertNotEqual(a, self.stream(8))
        lines = [line.split(" ", 2) for line in a.decode().splitlines()]
        for client in ("0", "1"):
            mine = [(kind, req) for c, kind, req in lines if c == client]
            cold = [req for kind, req in mine if kind == "cold"]
            self.assertEqual(len(cold), 60)
            self.assertEqual(len(mine), 120)
            self.assertEqual(len(set(cold)), 60)  # fresh seed per cold one
            for name in ("HF/Adv", "LiH/Adv", "H2O(4)/Adv", "H2O(5)/Adv",
                         "H2O(6)/Adv"):
                self.assertEqual(sum(f'"{name}"' in r for r in cold), 12)
            seen = set()
            for kind, req in mine:
                if kind == "warm":
                    self.assertIn(req, seen)  # a byte-exact earlier request
                    seen.remove(req)  # ... repeated exactly once
                else:
                    seen.add(req)
            self.assertEqual(seen, set())


if __name__ == "__main__":
    unittest.main()
