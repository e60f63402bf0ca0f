#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs the `smoke` workload through perfbench/run.py in both modes and checks
that the result line matches BENCHMARK.json (exactly the declared metrics,
each a finite number in its declared unit), that missing per-layer values
carry a reason in the results
file, that every row passes its checks, and that the simulated metrics
repeat bit for bit under one seed. Exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED = ("sim_speedup_geomean", "light_p50_ps", "light_p999_ps",
             "heavy_p50_ps", "heavy_p999_ps")


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def run(seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", "smoke", "--seed", str(seed), "--seconds", "0.1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n"
          f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"seed {seed} trace {trace}: {result['failed']} of "
          f"{result['attempted']} rows failed")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        metrics = run(1, trace)["metrics"]
        check(list(metrics) == [m["name"] for m in declared],
              f"trace {trace}: result metrics {list(metrics)} are not the declared ones")
        for m in declared:
            got = metrics[m["name"]]
            check(got["unit"] == m["unit"],
                  f"{m['name']}: unit {got['unit']} != declared {m['unit']}")
            check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
                  f"{m['name']}: value {got['value']!r} is not a finite number")
        if trace == 1:
            with open(os.path.join(target, "results",
                                   "smoke-seed1-trace1.json")) as f:
                doc = json.load(f)
            for m in doc["metrics"]:
                if m["value"] is None:
                    check(m.get("missing"), f"{m['name']} missing without a reason")

    again = run(1, 0)["metrics"]
    first = run(1, 0)["metrics"]
    other = run(2, 0)["metrics"]
    for name in SIMULATED:
        check(first[name]["value"] == again[name]["value"],
              f"{name} differs between two runs with seed 1")
    check(any(first[n]["value"] != other[n]["value"] for n in SIMULATED),
          "seeds 1 and 2 give identical simulated metrics: the seed is unused")
    print("selftest: ok")


if __name__ == "__main__":
    main()
