#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 18 --trace 0

Builds the greenfpga library, the `greenfpga` CLI and the `perfbench`
program from the source tree into `.bench_build/` (incremental after the
first run), then runs it.  Build and progress output go to stderr; the
last line of stdout is its JSON result.  The exit code is its own: 0
when every response and output matched the canonical bytes, non-zero
otherwise (and when the source tree is missing or does not build).
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("serve_hot", "serve_cold", "explore")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(here):
    """Configure once, then build incrementally; stdout stays clean."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench", "greenfpga-cli"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    for required in ("CMakeLists.txt", os.path.join("src", "scenario", "engine.hpp")):
        if not os.path.exists(required):
            fail(f"run from the repository root: {required} not found")
    try:
        build(here)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    bin_dir = os.path.join(BUILD_DIR, "bin")
    command = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(bin_dir, "greenfpga"),
        "--specs", os.path.join(here, "specs"),
        "--config", os.path.join(here, "workloads.json"),
        "--out", OUT_DIR,
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
