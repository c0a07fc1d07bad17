#!/usr/bin/env python3
"""Runs one workload of the verdict benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the benchmark's own CMake package over the repository's
sources) into .bench_build/perfbench, runs verdict_bench, checks that its
result names exactly the metrics BENCHMARK.json declares for the mode, and
prints its output. The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to stderr. A failed build, a crash, a timeout or a
malformed result exits non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "verdict_bench")
WORKLOADS = ("paper_grid", "idiom_sweep", "pooled_grid")


def build():
    """Configures once, then builds incrementally, under a lock."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=sys.stderr, stderr=sys.stderr, env=env)
            if configure.returncode != 0:
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        built = subprocess.run(
            ["cmake", "--build", BUILD, "--target", "verdict_bench",
             "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        return built.returncode == 0


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=2 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("perfbench: verdict_bench timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: verdict_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: result keys are %s" % sorted(result),
              file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(result["metrics"]) ^ declared), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
