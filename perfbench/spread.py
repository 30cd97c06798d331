#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload scale-100k --seeds 1-10 [--trace 0]

The spread is the interquartile range (statistics.quantiles, n=4) as a share
of the median, the figure BENCHMARK.json's bounds are judged against. Runs go
through perfbench/run.py one after another at BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(bench["run_seconds"]), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            sys.exit("seed %d failed (exit %d)" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        digest = next((l.split()[2] for l in lines
                       if l.startswith("perfbench digest ")), "")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d digest %s: %s" % (seed, digest, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds)), file=sys.stderr)

    print("%-28s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("%-28s %14.6g %10.4f %8s" % (
            name, med, (q3 - q1) / med if med else 0.0, bounds.get(name, "")))


if __name__ == "__main__":
    main()
