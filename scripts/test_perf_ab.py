#!/usr/bin/env python3
"""Unit tests for perf_ab.py's statistics and verdicts on fixed samples.

    python3 scripts/test_perf_ab.py
"""

import contextlib
import io
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

# Ten base runs of a latency: median 2.5, quartiles 2.4 and 2.625
# (statistics.quantiles' default, exclusive method).
BASE = [2.3, 2.4, 2.4, 2.5, 2.5, 2.5, 2.5, 2.6, 2.7, 2.8]


class Quartiles(unittest.TestCase):
    def test_matches_the_readme_method(self):
        self.assertEqual(perf_ab.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        q1, med, q3 = perf_ab.quartiles(BASE)
        self.assertAlmostEqual(q1, 2.4)
        self.assertAlmostEqual(med, 2.5)
        self.assertAlmostEqual(q3, 2.625)

    def test_one_value_is_its_own_spread(self):
        self.assertEqual(perf_ab.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(perf_ab.rel_spread([7.0]), 0.0)

    def test_relative_spread(self):
        self.assertAlmostEqual(perf_ab.rel_spread(BASE), 0.225 / 2.5)
        self.assertEqual(perf_ab.rel_spread([0, 0, 0]), 0.0)

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.quartiles([])


class Wins(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        base = [1.0, 2.0, 3.0, 4.0]
        head = [0.5, 2.0, 3.5, 3.0]
        self.assertEqual(perf_ab.wins(base, head, "lower"), 2)
        self.assertEqual(perf_ab.wins(base, head, "higher"), 1)

    def test_unpaired_samples_are_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.wins([1.0], [1.0, 2.0], "lower")

    def test_unknown_direction_is_an_error(self):
        with self.assertRaises(ValueError):
            perf_ab.better(1.0, 2.0, "sideways")


class Verdict(unittest.TestCase):
    def test_gain_needs_nine_wins_in_ten(self):
        head = [x - 0.9 for x in BASE]
        self.assertEqual(perf_ab.verdict(BASE, head, "lower", 0.25), "gain")
        eight = head[:8] + [BASE[8] + 0.1, BASE[9] + 0.1]
        self.assertEqual(perf_ab.wins(BASE, eight, "lower"), 8)
        self.assertNotEqual(perf_ab.verdict(BASE, eight, "lower", 0.25),
                            "gain")

    def test_gain_needs_a_gap_wider_than_the_base_spread(self):
        # Wins every pair, but by less than the quartile spread (0.225).
        head = [x - 0.1 for x in BASE]
        self.assertEqual(perf_ab.wins(BASE, head, "lower"), 10)
        self.assertEqual(perf_ab.verdict(BASE, head, "lower", 0.25), "held")

    def test_gain_for_a_higher_is_better_metric(self):
        head = [x + 1.0 for x in BASE]
        self.assertEqual(perf_ab.verdict(BASE, head, "higher", 0.25), "gain")
        self.assertEqual(perf_ab.verdict(BASE, head, "lower", 0.25), "worse")

    def test_worse_past_the_bound(self):
        head = [x * 1.3 for x in BASE]
        self.assertEqual(perf_ab.verdict(BASE, head, "lower", 0.25), "worse")
        within = [x * 1.2 for x in BASE]
        self.assertEqual(perf_ab.verdict(BASE, within, "lower", 0.25), "held")

    def test_unresolved_when_a_side_spreads_wider_than_the_bound(self):
        wide = [1.5, 2.0, 2.0, 2.5, 2.5, 2.5, 2.5, 3.0, 3.5, 3.5]
        self.assertGreater(perf_ab.rel_spread(wide), 0.25)
        self.assertEqual(perf_ab.verdict(BASE, wide, "lower", 0.25),
                         "unresolved")
        self.assertEqual(perf_ab.verdict(wide, BASE, "lower", 0.25),
                         "unresolved")

    def test_wide_spread_reads_held_when_every_head_run_is_better(self):
        base = [10.0, 12.0, 14.0, 16.0, 18.0]
        head = [9.0, 9.2, 9.4, 9.6, 9.8]
        self.assertGreater(perf_ab.rel_spread(base), 0.02)
        # Gap 4.6 < base spread 5.0: no gain, but no doubt either.
        self.assertEqual(perf_ab.verdict(base, head, "lower", 0.02), "held")

    def test_gain_needs_ten_pairs(self):
        head = [x - 0.9 for x in BASE]
        self.assertEqual(perf_ab.verdict(BASE[:9], head[:9], "lower", 0.25),
                         "held")

    def test_no_bound_reads_gain_or_held(self):
        self.assertEqual(perf_ab.verdict(BASE, [x * 2 for x in BASE],
                                         "lower", None), "held")
        self.assertEqual(perf_ab.verdict(BASE, [x - 0.9 for x in BASE],
                                         "lower", None), "gain")

    def test_identical_samples_hold(self):
        self.assertEqual(perf_ab.verdict(BASE, list(BASE), "lower", 0.25),
                         "held")


class Summary(unittest.TestCase):
    def test_rows_follow_the_spec(self):
        spec = [{"name": "latency_ms_p50", "unit": "ms", "better": "lower",
                 "bound": 0.25},
                {"name": "matching.searches", "unit": "count",
                 "better": "lower"}]

        def result(p50, searches):
            return {"metrics": {
                "latency_ms_p50": {"value": p50, "unit": "ms"},
                "matching.searches": {"value": searches, "unit": "count"}}}

        base = [result(x, 16.09) for x in BASE]
        head = [result(x - 0.9, 15.09) for x in BASE]
        rows = perf_ab.summarize(spec, base, head)
        self.assertEqual([r[0] for r in rows],
                         ["latency_ms_p50", "matching.searches"])
        self.assertEqual([r[-1] for r in rows], ["gain", "gain"])
        self.assertEqual(rows[0][4:6], (10, 10))
        text = perf_ab.format_rows(rows)
        self.assertIn("latency_ms_p50", text)
        self.assertIn("10/10", text)
        self.assertIn("-36.0%", text)


class SameBenchmark(unittest.TestCase):
    """Base and head must carry the same perfbench/ and BENCHMARK.json."""

    SPEC = '{"run_seconds": 30, "workloads": [{"name": "w"}]}'

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.repo = Path(tmp.name) / "repo"
        self.workdir = Path(tmp.name) / "work"
        self.repo.mkdir()
        patch = mock.patch.object(perf_ab, "ROOT", self.repo)
        patch.start()
        self.addCleanup(patch.stop)
        self.git("init", "-q")
        self.base = self.commit({"BENCHMARK.json": self.SPEC,
                                 "perfbench/run.py": "a\n",
                                 "src/matcher.cpp": "1\n"})

    def git(self, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args], cwd=self.repo, check=True,
            capture_output=True, text=True).stdout.strip()

    def commit(self, files):
        for name, text in files.items():
            path = self.repo / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        self.git("add", "-A")
        self.git("commit", "-q", "-m", "change")
        return self.git("rev-parse", "HEAD")

    def main(self, head, workload="w"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = perf_ab.main(["--base", self.base, "--head", head,
                                   "--workload", workload, "--pairs", "1",
                                   "--seed", "1", "--workdir",
                                   str(self.workdir)])
        return status, err.getvalue()

    def test_a_change_outside_the_benchmark_reads_heads_spec(self):
        head = self.commit({"src/matcher.cpp": "2\n"})
        spec = perf_ab.benchmark_spec(self.base, head)
        self.assertEqual(spec["run_seconds"], 30)

    def test_a_change_to_perfbench_is_refused_before_any_export(self):
        head = self.commit({"perfbench/run.py": "b\n"})
        with self.assertRaisesRegex(RuntimeError, "differ in perfbench"):
            perf_ab.benchmark_spec(self.base, head)
        status, err = self.main(head)
        self.assertEqual(status, 1)
        self.assertIn("differ in perfbench/ or BENCHMARK.json", err)
        self.assertFalse(self.workdir.exists())

    def test_a_change_to_benchmark_json_is_refused(self):
        head = self.commit({"BENCHMARK.json": self.SPEC.replace("30", "10")})
        status, err = self.main(head)
        self.assertEqual(status, 1)
        self.assertIn("differ in perfbench/ or BENCHMARK.json", err)
        self.assertFalse(self.workdir.exists())

    def test_an_unknown_workload_is_refused_before_any_export(self):
        head = self.commit({"src/matcher.cpp": "2\n"})
        status, err = self.main(head, workload="nope")
        self.assertEqual(status, 1)
        self.assertIn("unknown workload 'nope'", err)
        self.assertFalse(self.workdir.exists())


if __name__ == "__main__":
    unittest.main()
