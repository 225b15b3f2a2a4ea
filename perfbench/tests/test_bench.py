#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/tests/test_bench.py

They build the generator through run.py, then check
  - the open-loop generator against a stalling stub peer (perfbench_tests);
  - that a zero-sample run and normal runs print strict JSON, with null
    (never NaN or Inf) for values that cannot be computed and a unit on
    every metric, and that the result line matches BENCHMARK.json;
  - that BENCHMARK.json's workload reasons state the latency limits the
    generator runs with;
  - attribution: a fixed delay added around one layer's public call (the
    generator's test-only --inject-delay seam) moves that layer's metric
    and its end-to-end metrics, and no other timing beyond its bound.
Runs use the generator's --small inputs, so the whole suite takes about a
minute.
"""

import argparse
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run as bench  # noqa: E402

SEED = 7
SPEC = json.loads((bench.BENCH_DIR.parent / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
PER_LAYER_TOLERANCE = max(BOUND.values())


def drive(workload, seconds, trace, *extra):
    """One --small run through run.py's checks: (report, result)."""
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=seconds,
                              trace=trace)
    report, result = bench.run(args, ("--small", *extra))
    for line in (report, result):
        if re.search(r"NaN|Infinity", line):
            raise AssertionError(f"non-JSON number in {line}")
    return bench.strict_json(report), bench.strict_json(result)


def values(report):
    return {k: v["value"] for k, v in report["metrics"].items()}


class Generator(unittest.TestCase):
    def test_open_loop_counts_a_stall(self):
        out = bench.build(("perfbench_tests",))
        proc = subprocess.run([str(out / "perfbench_tests")], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class Output(unittest.TestCase):
    def test_zero_sample_runs_print_null_not_nan(self):
        for workload in ("lib-linegraph", "serve-hot"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    report, result = drive(workload, 0, trace)
                    self.assertEqual(result["attempted"], 0)
                    self.assertFalse(result["correct"])
                    self.assertFalse(report["valid"])
                    for name, entry in report["metrics"].items():
                        self.assertIn("unit", entry, name)
                    if trace == 0:
                        p50 = report["metrics"]["latency_ms_p50"]
                        self.assertIsNone(p50["value"])
                        self.assertEqual(p50["samples"], 0)
                        self.assertIsNone(report["metrics"]["goodput_qps"]["value"])
                        self.assertEqual(result["metrics"]["latency_ms_p50"]["value"], 0)
                    else:
                        self.assertIsNone(report["metrics"]["trace.overhead"]["value"])

    def test_normal_runs_are_complete_and_stamped(self):
        for workload, seconds in (("lib-linegraph", 2), ("serve-hot", 2),
                                  ("serve-churn", 2)):
            with self.subTest(workload=workload):
                report, result = drive(workload, seconds, 0)
                self.assertTrue(report["valid"], report["problems"])
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                stamps = report["perfbench"]
                for key in ("git", "seed", "nproc", "pool_threads", "build_type"):
                    self.assertIn(key, stamps)
                self.assertEqual(stamps["seed"], SEED)
                # Read when the run starts, so it names the tree measured
                # even when the build was configured at another commit.
                self.assertEqual(stamps["git"], bench.git_describe())
                tail = report["metrics"]["latency_ms_tail"]
                self.assertGreaterEqual(tail["beyond"], 10)
                self.assertEqual(tail["samples"], result["attempted"])

    def test_traced_ratios_carry_their_base(self):
        report, _ = drive("lib-linegraph", 2, 1)
        metrics = report["metrics"]
        self.assertGreater(metrics["sparsify.read_frac"]["base"], 0)
        self.assertGreater(metrics["matching.ms_p50"]["value"],
                           metrics["sparsify.ms_p50"]["value"])
        hit = metrics["serve.cache.hit_ratio"]
        self.assertIsNone(hit["value"])  # no lookups on a library workload
        self.assertEqual(hit["samples"], 0)


class BenchmarkJson(unittest.TestCase):
    def test_workloads_and_their_reasons(self):
        why = {w["name"]: w["why"] for w in SPEC["workloads"]}
        self.assertLessEqual(set(why), set(bench.WORKLOADS))
        for workload in why:
            with self.subTest(workload=workload):
                report, _ = drive(workload, 0, 0)
                limit = report["metrics"]["goodput_qps"]["limit_ms"]
                self.assertIn(f"Limit {limit:g} ms", why[workload])


class Attribution(unittest.TestCase):
    """A fixed delay around one layer's public call must show up in that
    layer's metric and its end-to-end metrics, and nowhere else."""

    DELAY_MS = 20.0
    SECONDS = 3

    @classmethod
    def setUpClass(cls):
        cls.base = {t: values(drive("lib-linegraph", cls.SECONDS, t)[0]) for t in (0, 1)}

    def delayed(self, layer):
        spec = f"{layer}:{self.DELAY_MS:g}"
        return {t: values(drive("lib-linegraph", self.SECONDS, t, "--inject-delay", spec)[0])
                for t in (0, 1)}

    def check(self, after, moved, still):
        for trace, name, at_least in moved:
            with self.subTest(moved=name):
                before = self.base[trace][name]
                self.assertGreaterEqual(after[trace][name] - before, at_least,
                                        f"{name}: {before} -> {after[trace][name]}")
        for trace, name in still:
            with self.subTest(still=name):
                before, now = self.base[trace][name], after[trace][name]
                allowed = max(BOUND.get(name, PER_LAYER_TOLERANCE) * abs(before),
                              self.DELAY_MS / 4)
                self.assertLess(abs(now - before), allowed, f"{name}: {before} -> {now}")

    def test_matching_delay_moves_matching_and_solve_latency(self):
        after = self.delayed("matching")
        d = 0.8 * self.DELAY_MS
        self.check(after,
                   moved=[(1, "matching.ms_p50", d), (0, "latency_ms_p50", d),
                          (0, "latency_ms_tail", d)],
                   still=[(1, "sparsify.ms_p50"), (1, "graph.csr_ms"),
                          (1, "core.overhead_ms_p50"), (0, "match_ratio")])
        self.assertLess(after[0]["goodput_qps"], self.base[0]["goodput_qps"])
        self.assertLess(abs(after[0]["setup_s"] - self.base[0]["setup_s"]),
                        self.DELAY_MS / 4e3)

    def test_graph_delay_moves_csr_build_and_setup(self):
        after = self.delayed("graph")
        d = 0.8 * self.DELAY_MS
        self.check(after,
                   moved=[(1, "graph.csr_ms", d)],
                   still=[(0, "latency_ms_p50"), (0, "latency_ms_tail"),
                          (1, "sparsify.ms_p50"), (1, "matching.ms_p50"),
                          (0, "match_ratio")])
        self.assertGreater(after[0]["setup_s"] - self.base[0]["setup_s"], d / 1e3)


if __name__ == "__main__":
    unittest.main(verbosity=2)
