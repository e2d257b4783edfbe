#!/usr/bin/env python3
"""Stability evidence for the NCSw benchmark.

    python3 perfbench/stability.py

Runs every workload of BENCHMARK.json once per seed of SEEDS and once on
the HELD_OUT seed, with the run length from BENCHMARK.json, untraced, one
run at a time, then prints a Markdown table per workload. Each row gives
a metric's median and quartiles over the seeds, the spread (third quartile minus first, as
a share of the median, as statistics.quantiles gives them), the metric's
bound, and the value on the held-out seed. Exits non-zero when a run
fails or a spread exceeds its bound.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
HELD_OUT = 1001  # a seed not used while tuning


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, bench["run_seconds"]) for s in SEEDS]
        held = run(workload, HELD_OUT, bench["run_seconds"])
        print(f"\n### {workload} ({len(runs)} seeds "
              f"{SEEDS[0]}-{SEEDS[-1]}, held-out seed "
              f"{HELD_OUT}, {bench['run_seconds']} s runs)\n")
        print("| metric | median | q1 | q3 | spread | bound | held-out |")
        print("|---|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if spread > m["bound"]:
                ok = False
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} | {held[m['name']]:.6g} |")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
