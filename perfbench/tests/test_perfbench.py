"""Tests of the NCSw benchmark: the BENCHMARK.json contract, the metric
tables behind it, and a short smoke run of every workload.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The smoke runs build the benchmark on first
use (see perfbench/run.py) and take about two minutes in all.
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PRINTED_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seconds=1, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        doc = load_benchmark()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        names = []
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))

    def test_tables_match_the_program(self):
        """The C++ metric tables list the same names and units, in order."""
        with open(os.path.join(ROOT, "perfbench", "src", "main.cpp")) as f:
            src = f.read()
        doc = load_benchmark()
        for table, key in (("kEndToEnd", "end_to_end"),
                           ("kPerLayer", "per_layer")):
            body = src[src.index(f"const MetricDef {table}[]"):]
            body = body[:body.index("};")]
            rows = re.findall(r'\{"([^"]+)", "([^"]+)", "[^"]+"\}', body)
            self.assertEqual(rows, [(m["name"], m["unit"]) for m in doc[key]])

    def test_workloads_match_the_runner(self):
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        try:
            import run
        finally:
            sys.path.pop(0)
        self.assertEqual(list(run.WORKLOADS),
                         [w["name"] for w in load_benchmark()["workloads"]])


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, for one second of timing."""

    def check_run(self, workload, trace):
        doc = load_benchmark()
        expected = doc["per_layer" if trace else "end_to_end"]
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsInstance(result["failed"], int)
        self.assertEqual(result["failed"], 0)

        printed = [line.split() for line in lines if line.startswith("metric ")]
        known = {m["name"] for m in doc["end_to_end"] + doc["per_layer"]}
        for fields in printed:
            self.assertRegex(fields[1], PRINTED_NAME)
            self.assertIn(fields[1], known)
        units = {m["name"]: m["unit"] for m in expected}
        self.assertEqual([f[1] for f in printed], list(units))
        self.assertEqual(list(result["metrics"]), list(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertNotEqual(metric["value"], 0, name)

    def test_serve_node(self):
        self.check_run("serve-node", 0)
        self.check_run("serve-node", 1)

    def test_zoo_swap(self):
        self.check_run("zoo-swap", 0)
        self.check_run("zoo-swap", 1)

    def test_cluster_failover(self):
        self.check_run("cluster-failover", 0)
        self.check_run("cluster-failover", 1)

    def test_classify_fig7(self):
        self.check_run("classify-fig7", 0)
        self.check_run("classify-fig7", 1)


if __name__ == "__main__":
    unittest.main()
