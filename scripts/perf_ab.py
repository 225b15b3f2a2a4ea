#!/usr/bin/env python3
"""A/B of two git revisions on one perfbench workload, in alternating pairs.

    scripts/perf_ab.py --base <rev> --head <rev> --workload <w> --pairs <n> \\
        --seed <s0> [--trace 0|1] [--workdir <dir>] [--append <file>]

Run it from inside the repository. Base and head must carry the same
benchmark: when they differ in perfbench/ or BENCHMARK.json the script
exits 1 before exporting anything. The workloads, metrics, bounds and run
length come from head's BENCHMARK.json. Each revision is exported with
`git archive <rev> | tar -x` into its own directory under --workdir (no
worktree, so nothing is written into .git) and built there by
perfbench/run.py into its own CARGO_TARGET_DIR. CXXFLAGS, when set, is
passed to both builds, which then go to a target directory named after the
flags. Pair i runs seed s0 + i on both sides, base first when i is even
and head first when it is odd, each for BENCHMARK.json's run_seconds. Any
run that exits nonzero or reads `correct: false` stops the script with
exit status 1.

For every metric of the run kind (BENCHMARK.json's end_to_end, or
per_layer under --trace 1) it prints each side's median and quartiles,
head's wins (ties count for neither side) and a verdict:

  gain        at least 10 pairs ran, head wins at least 9 in 10 of them,
              and its median is better by more than the base's quartile
              spread;
  worse       head's median is worse than base's by more than the bound;
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, and not every head run beats every base
              run;
  held        otherwise.

Per-layer metrics have no bound, so they read gain or held. The exit
status is 3 when any metric reads worse. Once every pair has run, --append
appends one JSON line per run (git, workload, seed, seconds, trace, nproc,
the result line) to a trajectory file; a failed or interrupted A/B appends
nothing.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics and verdicts (unit-tested in scripts/test_perf_ab.py).


def quartiles(values):
    """(q1, median, q3) as perfbench/README.md measures spread:
    statistics.quantiles(values, n=4)."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    """True when `a` is strictly better than `b` for a metric whose
    BENCHMARK.json `better` is `direction` ("lower" or "higher")."""
    if direction == "lower":
        return a < b
    if direction == "higher":
        return a > b
    raise ValueError(f"unknown direction {direction!r}")


def wins(base, head, direction):
    """Pairs in which head beats base; a tie counts for neither."""
    if len(base) != len(head):
        raise ValueError("base and head differ in length")
    return sum(better(h, b, direction) for b, h in zip(base, head))


def rel_spread(values):
    """Quartile spread as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, head, direction, bound):
    """One of "gain", "worse", "unresolved", "held"; see the module doc.
    `bound` is the relative bound, or None for a metric without one."""
    q1, base_med, q3 = quartiles(base)
    head_med = quartiles(head)[1]
    won = wins(base, head, direction)
    if (len(base) >= 10 and 10 * won >= 9 * len(base)
            and better(head_med, base_med, direction)
            and abs(head_med - base_med) > q3 - q1):
        return "gain"
    if bound is None:
        return "held"
    if better(base_med, head_med, direction) and \
            abs(head_med - base_med) > bound * abs(base_med):
        return "worse"
    all_better = all(better(h, b, direction) for h in head for b in base)
    if max(rel_spread(base), rel_spread(head)) > bound and not all_better:
        return "unresolved"
    return "held"


def summarize(spec_metrics, base_results, head_results):
    """Rows of (name, unit, base quartiles, head quartiles, wins, pairs,
    verdict) for every metric in `spec_metrics`, from paired result lines."""
    rows = []
    for m in spec_metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in base_results]
        head = [r["metrics"][name]["value"] for r in head_results]
        rows.append((name, m["unit"], quartiles(base), quartiles(head),
                     wins(base, head, m["better"]), len(base),
                     verdict(base, head, m["better"], m.get("bound"))))
    return rows


def format_rows(rows):
    out = [f"{'metric':<24} {'unit':<6} {'base p50 [q1-q3]':<28} "
           f"{'head p50 [q1-q3]':<28} {'change':>8} {'wins':>6}  verdict"]
    for name, unit, (bq1, bm, bq3), (hq1, hm, hq3), won, n, v in rows:
        change = f"{100.0 * (hm - bm) / bm:+.1f}%" if bm else "n/a"
        out.append(f"{name:<24} {unit:<6} "
                   f"{f'{bm:.4g} [{bq1:.4g}-{bq3:.4g}]':<28} "
                   f"{f'{hm:.4g} [{hq1:.4g}-{hq3:.4g}]':<28} "
                   f"{change:>8} {f'{won}/{n}':>6}  {v}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Exporting, building and running.


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def benchmark_spec(base_sha, head_sha):
    """Head's BENCHMARK.json, once base and head are known to carry the same
    perfbench/ and BENCHMARK.json; runs of two benchmarks compare nothing."""
    diff = subprocess.run(["git", "diff", "--quiet", base_sha, head_sha, "--",
                           "perfbench", "BENCHMARK.json"], cwd=ROOT)
    if diff.returncode == 1:
        raise RuntimeError(f"{base_sha[:12]} and {head_sha[:12]} differ in "
                           f"perfbench/ or BENCHMARK.json")
    if diff.returncode != 0:
        raise RuntimeError("git diff failed")
    return json.loads(git("show", f"{head_sha}:BENCHMARK.json"))


def flags_tag():
    flags = os.environ.get("CXXFLAGS", "")
    return hashlib.sha1(flags.encode()).hexdigest()[:8] if flags else "default"


class Side:
    """One revision: its export, its build directory and its results."""

    def __init__(self, label, rev, workdir):
        self.label = label
        self.rev = rev
        self.sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        home = Path(workdir).resolve() / f"{label}-{self.sha[:12]}"
        self.tree = home / "tree"
        self.exported = home / "exported"
        self.target = home / f"target-{flags_tag()}"
        self.results = []

    def env(self):
        return dict(os.environ, CARGO_TARGET_DIR=str(self.target))

    def export(self):
        if self.exported.exists():
            return
        self.tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", self.sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(self.tree)],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            raise RuntimeError(f"exporting {self.rev} failed")
        self.exported.touch()

    def build(self):
        code = "import sys; sys.path.insert(0, 'perfbench'); import run; run.build()"
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.tree,
                              env=self.env(), stdout=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"building {self.rev} failed")

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=self.tree, env=self.env(),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{self.label} seed {seed}: run.py exited "
                               f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["correct"] is not True:
            raise RuntimeError(f"{self.label} seed {seed}: correct is "
                               f"{result['correct']}, failed "
                               f"{result['failed']}")
        self.results.append(result)
        return result


def trajectory_line(side, workload, seed, seconds, trace, result):
    line = {"git": side.sha, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace,
            "nproc": len(os.sched_getaffinity(0))}
    if os.environ.get("CXXFLAGS"):
        line["cxxflags"] = os.environ["CXXFLAGS"]
    line["result"] = result
    return json.dumps(line)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir",
                   default=os.path.join(tempfile.gettempdir(), "perf_ab"))
    p.add_argument("--append", metavar="FILE")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        p.error("--pairs must be >= 1 and --seed >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    lines = []
    try:
        base = Side("base", args.base, args.workdir)
        head = Side("head", args.head, args.workdir)
        spec = benchmark_spec(base.sha, head.sha)
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            raise RuntimeError(f"unknown workload {args.workload!r}; "
                               f"BENCHMARK.json has {', '.join(workloads)}")
        seconds = float(spec["run_seconds"])
        for side in (base, head):
            side.export()
            side.build()
        for i in range(args.pairs):
            seed = args.seed + i
            for side in (base, head) if i % 2 == 0 else (head, base):
                result = side.run(args.workload, seed, seconds, args.trace)
                log(f"pair {i + 1}/{args.pairs} seed {seed} {side.label} ok")
                lines.append(trajectory_line(side, args.workload, seed,
                                             seconds, args.trace, result))
        if args.append:
            with open(args.append, "a") as f:
                f.write("".join(line + "\n" for line in lines))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(str(e))
        return 1
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    rows = summarize(metrics, base.results, head.results)
    print(f"{args.workload}: base {base.sha[:12]} vs head {head.sha[:12]}, "
          f"{args.pairs} pairs of {seconds:g} s from seed {args.seed}")
    print(format_rows(rows))
    return 3 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
