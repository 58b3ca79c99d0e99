#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--deadline-us D]

Run from the root of a checkout. The first run builds the library sources
under src/ and the benchmark program under perfbench/ into .bench_build/perfbench
(later runs only rebuild what changed). The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. A traced run
also writes its spans to .bench_build/trace-<workload>.json. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("city_1m", "cell_nru", "serve_zipf", "datapath_imix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "e2e_system.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if res.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited with {res.returncode}")
    return os.path.join(BUILD, "perfbench")


def check_result(line):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the program's last line is not JSON")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result line has the wrong keys")
    if res["attempted"] < 1:
        fail("no ops attempted")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--deadline-us", type=float, default=1000.0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--deadline-us", repr(args.deadline_us)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD_ROOT, f"trace-{args.workload}.json")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {res.returncode}")
    check_result(lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
