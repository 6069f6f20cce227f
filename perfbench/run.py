#!/usr/bin/env python3
"""Builds the library and the perfbench workload program, then runs it.

    python3 perfbench/run.py --workload warm-mixed --seed 1 --seconds 24 \
        --trace 0

Run it from anywhere inside a source tree of the repository; it builds into
`.bench_build/perfbench` at the tree's root (Release, reused across runs),
computes the naive-engine oracle once per document size, runs the workload in
its own process and passes its output through. The last line of standard
output is the JSON result. Workloads, metrics and their reasons are in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD = os.path.join(BUILD_DIR, "perfbench_workload")
WORKLOADS = ("warm-mixed", "cold-pool", "edit-mix")
BUILD_TIMEOUT_S = 840
ORACLE_TIMEOUT_S = 300
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step, output on stderr; fails the benchmark on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    run_quiet(configure, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_workload",
               "-j", str(BUILD_JOBS)], BUILD_TIMEOUT_S)


def oracle_path(size_mb):
    """Expected answers of the fixed document, computed once per size."""
    path = os.path.join(BUILD_DIR, f"oracle-{size_mb:g}mb.txt")
    if not os.path.isfile(path):
        run_quiet([WORKLOAD, "oracle", "--size-mb", f"{size_mb:g}",
                   "--out", path], ORACLE_TIMEOUT_S)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size-mb", type=float, default=11.0,
                        help="XMark document size (the self-test uses 1.1)")
    parser.add_argument("--ops", type=int, default=0,
                        help="operations per pass (0: the workload's "
                             "nominal pass length)")
    args = parser.parse_args()

    build()
    cmd = [WORKLOAD, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", str(args.trace), "--size-mb", f"{args.size_mb:g}",
           "--oracle", oracle_path(args.size_mb)]
    if args.ops > 0:
        cmd += ["--ops", str(args.ops)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"workload {args.workload} failed ({done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        fail(f"workload {args.workload} printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
