#!/usr/bin/env python3
"""Smoke tests for perfbench, at self-test size (--tiny).

    python3 perfbench/tests/test_smoke.py      # from the repository root

Checks that every metric BENCHMARK.json declares is emitted with its unit
and a finite value, for every workload in both modes; that two runs of one
seed give identical exact counters and digests; and that the benchmark
refuses to run, without printing a result, where the sources are missing.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "work", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# Every workload perfbench runs: BENCHMARK.json's, plus the 10^5-peer market that
# stays a local bench (see README.md).
WORKLOADS = ["fig11-sweep", "book-adv", "scale-100k"]


def run(workload, seed, trace, cwd=ROOT, seconds=1):
    """Run the benchmark command at self-test size; (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def digest_of(lines):
    return next(l.split()[2] for l in lines if l.startswith("perfbench digest "))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "metric names unique")
        self.assertIn("setup_s", [m["name"] for m in BENCH["end_to_end"]])
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         WORKLOADS[:2])


class SmokeTest(unittest.TestCase):
    def check_result(self, lines, declared):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]),
                            m["name"])
        return metrics

    def test_every_metric_emitted(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, 3, 0)
                self.assertEqual(code, 0)
                e2e = self.check_result(lines, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
                code, lines = run(w, 3, 1)
                self.assertEqual(code, 0)
                self.check_result(lines, BENCH["per_layer"])

    def test_same_seed_same_counts_and_digest(self):
        exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [run(w, 5, 1) for _ in range(2)]
                (code_a, a), (code_b, b) = runs
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertEqual(digest_of(a), digest_of(b))
                ma = json.loads(a[-1])["metrics"]
                mb = json.loads(b[-1])["metrics"]
                for name in exact:
                    self.assertEqual(ma[name]["value"], mb[name]["value"], name)
        # A different seed gives different inputs, so different outputs.
        self.assertNotEqual(digest_of(run("book-adv", 6, 0)[1]),
                            digest_of(run("book-adv", 5, 0)[1]))

    def test_split_over_processes(self):
        # --seconds 10 splits the run over two processes; their mean is
        # reported and their digests must agree with a single process.
        code, lines = run("book-adv", 4, 0, seconds=10)
        self.assertEqual(code, 0)
        self.check_result(lines, BENCH["end_to_end"])
        self.assertEqual(digest_of(lines), digest_of(run("book-adv", 4, 0)[1]))

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        code, lines = run("book-adv", 1, 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
