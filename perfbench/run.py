#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload solve-uniform --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (the acic library plus the benchmark binary, optimized, with
LTO) into $CARGO_TARGET_DIR, default .bench_build; later calls rebuild
incrementally.  Build output goes to stderr, so the last line on stdout
is the benchmark binary's JSON result.  Traced runs (--trace 1) write
their Perfetto trace into <build dir>/traces.
"""

import argparse
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root, "traces")]
    child = subprocess.Popen(cmd, cwd=root)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        # Also reached on SIGTERM (raised as SystemExit below) and
        # Ctrl-C: the benchmark never outlives this script.
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
