#!/usr/bin/env python3
"""Runs one workload of the engine benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first run builds the engine and
the benchmark from source into .bench_build/ (CMake, Release). Each run then
computes (or reuses) the SQLite oracle's answers for the seed, and runs the
workload in a fresh process. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
BINARY = os.path.join(BUILD, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target="perfbench"):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cbqt", "engine.h")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                               WORK]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", WORK]
    oracle = subprocess.run([BINARY, "oracle"] + common, stdout=sys.stderr,
                            stderr=sys.stderr)
    if oracle.returncode:
        log("perfbench: oracle failed")
        return 2
    run = subprocess.run([BINARY, "run"] + common +
                         ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
