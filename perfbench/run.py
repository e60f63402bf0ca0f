#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2-closed --seed 1 --seconds 20 --trace 0

The script configures and builds perfbench/ (the nexus library plus the
perfbench driver) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. The driver's last line of
standard output is the result object; build output goes to standard error.
Exits nonzero without printing a result when the build or the run fails.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step; its output goes to stderr so stdout stays clean."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{cmd[0]} failed: {e}")
    if proc.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited with {proc.returncode}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no nexus sources (src/CMakeLists.txt) in this checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], timeout=300)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], timeout=850)
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources, the root build file and perfbench/."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if not os.path.isfile(path):
            continue
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    exe = build(os.path.join(target, "perfbench"))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--results", os.path.join(target, "results"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value: {v!r}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
