#!/usr/bin/env python3
"""Build and run the SDIMM benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <paper-matrix|standards-lowpower|wire-sealed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `sdimm-perfbench` package beside this file (a Cargo package of
its own, depending on the repository's crates by path) in release mode
into $CARGO_TARGET_DIR, default `.bench_build`, then runs it with the same
arguments. The benchmark prints its metrics and, as the last line of
standard output, one JSON object. A failed build or run exits non-zero
without printing a result. Traced runs (`--trace 1`) also write their
host-time spans to `<target dir>/perfbench-spans-<workload>.json`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr: stdout carries only the benchmark's.
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "sdimm-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        command += ["--spans", os.path.join(target, f"perfbench-spans-{args.workload}.json")]
    sys.stdout.flush()
    try:
        ran = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
