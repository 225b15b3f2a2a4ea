#!/usr/bin/env python3
"""Runs one workload of the matchsparse benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the library modules, the
matchsparse_serve daemon and the load generator from source with CMake
(into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs
the workload, and prints the generator's two JSON lines: the full report,
then the result line that BENCHMARK.json describes. The result line is
checked strictly against BENCHMARK.json before it is printed. Exits
nonzero, printing no result, when the build or the run fails. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# serve-hot runs here but is not among BENCHMARK.json's workloads: its
# open-loop p90 is too unsteady from run to run (see README.md).
WORKLOADS = ("lib-dense", "lib-linegraph", "serve-hot", "serve-churn")
# Seconds a run may take beyond its measured window: set-up, references,
# warm-up and teardown.
RUN_OVERHEAD_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(targets=("perfbench_gen", "perfbench_serve")):
    """Configures (once) and builds `targets`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                raise RuntimeError("cmake configure failed")
        cmd = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
               "--target", *targets]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build failed")
    return out


def git_describe():
    """The tree being measured, read now rather than when the build was
    configured: `git describe --always --dirty`, or "unknown" outside a
    git checkout."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def strict_json(line):
    """json.loads that refuses NaN and Infinity."""
    def bad_constant(name):
        raise ValueError(f"non-JSON number {name}")
    return json.loads(line, parse_constant=bad_constant)


def check_result(result, trace):
    """Raises ValueError unless `result` has exactly the shape and the
    metrics that BENCHMARK.json promises for this kind of run."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        entry = got[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            raise ValueError(f"metric {name} is {entry}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {name} has no numeric value")


def run(args, extra=()):
    """Runs the generator; returns its stdout lines (report, result)."""
    out = build()
    work = out / "run"
    work.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench_gen"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--daemon", str(out / "matchsparse_serve"),
           "--work-dir", os.path.relpath(work), "--git", git_describe(), *extra]
    # Its own session, so a timeout can stop it and the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("the run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"the generator exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if len(lines) != 2:
        raise RuntimeError(f"expected 2 output lines, got {len(lines)}")
    strict_json(lines[0])
    check_result(strict_json(lines[1]), args.trace)
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds within [0, 3600]")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        lines = run(args)
    except (RuntimeError, ValueError, OSError) as e:
        log(f"{args.workload}: {e}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
