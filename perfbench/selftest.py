#!/usr/bin/env python3
"""Self-test of the benchmark: short runs on the 1.1 MB document.

    python3 perfbench/selftest.py

Checks that
  1. every workload prints exactly the end-to-end metrics of BENCHMARK.json
     (--trace 0) and exactly its per-layer metrics (--trace 1), with their
     units, and answers every operation correctly;
  2. two same-seed runs of edit-mix, and of traced warm-mixed (one client),
     do identical work: the same schedule, result sums, commit and
     compaction counts and pool fault counts;
  3. another seed draws another schedule.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZE_MB = "1.1"
OPS = "1200"
DETERMINISTIC = ("schedule_hash", "result_sum", "reads", "commits",
                 "compactions", "pool_faults", "write_commits",
                 "write_compactions")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "4", "--trace", str(trace),
         "--size-mb", SIZE_MB, "--ops", OPS],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return result, fingerprint


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    fingerprints = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, fp = run(workload, 7, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{workload} --trace {trace} prints the listed metrics "
                   "and units")
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0,
                   f"{workload} --trace {trace} answers every operation "
                   "correctly")
            fingerprints[(workload, trace)] = fp

    for workload, trace in (("edit-mix", 0), ("warm-mixed", 1)):
        _, again = run(workload, 7, trace)
        first = fingerprints[(workload, trace)]
        expect({k: first[k] for k in DETERMINISTIC} ==
               {k: again[k] for k in DETERMINISTIC},
               f"{workload} --trace {trace}: same seed, same work {again}")
        _, other = run(workload, 8, trace)
        expect(other["schedule_hash"] != first["schedule_hash"],
               f"{workload} --trace {trace}: another seed, another schedule")
    expect(fingerprints[("edit-mix", 0)]["commits"] > 0 and
           fingerprints[("edit-mix", 0)]["compactions"] > 0,
           "edit-mix commits and compacts inside its loop")
    print("selftest passed")


if __name__ == "__main__":
    main()
