#!/usr/bin/env python3
"""Build and run the NCSw benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-node --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt (the library sources under src/ plus the
benchmark program) into .bench_build/ ($CARGO_TARGET_DIR when set); later
calls rebuild incrementally. Build output goes to stderr; stdout carries
the program's metric lines and ends with its JSON result. Exits non-zero
when an output check fails (the result then reads "correct": false), and
with no result at all when the build or the program itself fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-node", "zoo-swap", "cluster-failover", "classify-fig7")
RUN_TIMEOUT_S = 175  # stop a hung run before three minutes pass


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "ncsw_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, file=sys.stderr, end="")
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    print(proc.stdout, end="")
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"perfbench: output checks failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
