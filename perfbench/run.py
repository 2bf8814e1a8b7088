#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run one workload, print metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload membound --seed 0 --seconds 25 --trace 0

Builds the simulator library and the perfbench program from source into
.bench_build/perfbench (a no-op once built), runs the program, and checks
that its last stdout line is the result object with exactly the metrics
BENCHMARK.json lists for the chosen mode (end_to_end for --trace 0,
per_layer for --trace 1). The program's output is passed through; the
result is the last line. Exits non-zero, without a result line, when the
build, the run or that check fails. See perfbench/README.md.
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
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR,
           "--ref-dir", os.path.join(HERE, "reference")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("last line of perfbench output is not JSON")
    want = expected_metrics(bool(args.trace))
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        sys.stderr.write(proc.stdout)
        fail("result does not carry exactly the metrics BENCHMARK.json "
             f"lists: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
