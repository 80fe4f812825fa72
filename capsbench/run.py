#!/usr/bin/env python3
"""Builds the capsbench benchmark from source and runs one measurement.

    python3 capsbench/run.py --workload sim-batch|serve-hot|fleet-miss \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's last line of standard output is
its JSON result; the exit status is nonzero when the build fails, a
correctness check fails, or the run overstays its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds plus its set-up; anything near this limit
# is a hang, not a measurement.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("capsbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "capsbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"capsbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
