#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout of the simulator:

    python3 perfbench/run.py --workload engine_sharegpt --seed 1 \
        --seconds 28 --trace 0

The first call configures and builds perfbench/ (the repository's
libraries plus the benchmark executable) in .bench_build/; later calls
rebuild only what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result, when the simulator's sources are not
beside perfbench/ or the build fails. `--workload all` runs every
workload of BENCHMARK.json in turn, each ending in its own JSON line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build the perfbench target."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit("perfbench: no simulator sources beside perfbench/ "
                     f"(missing {needed})")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        result = subprocess.run([EXE, "--workload", workload,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", args.trace])
        status = status or result.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
