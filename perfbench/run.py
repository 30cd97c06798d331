#!/usr/bin/env python3
"""Build CreditFlow's benchmark and run one workload with one seed.

    python3 perfbench/run.py --workload fig11-sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the benchmark binary, in
Release mode) under .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to standard error.

With --trace 0 the measured time is split over several benchmark processes
run one after another, about five seconds each. On the same inputs one
process can run 10-15% slower than the next, for its whole life, so each
end-to-end metric is the mean of the processes' values (each of them a
median over that process's passes). Every process must give the same output
digest. With --trace 1, for scale-100k (whose passes take about ten seconds)
and for runs shorter than ten seconds, one process runs and its output is
passed through unchanged. The last line of standard output is the JSON
result; the exit code is 0 only when every output check held.

Extra flags (--tiny: self-test size) are passed through.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
SECONDS_PER_PROCESS = 5


def build():
    """Configure (once) and build the binary; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "p2p", "protocol.hpp")):
        print("perfbench: no CreditFlow sources at " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        sys.exit(2)
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    status = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(2)


def option(args, name):
    """The value following `name` in `args`, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def process_count(args):
    """How many processes the run is split over (1: no split)."""
    try:
        seconds = int(option(args, "--seconds") or 0)
    except ValueError:
        return 1
    if option(args, "--trace") != "0" or option(args, "--workload") == "scale-100k":
        return 1
    return max(1, seconds // SECONDS_PER_PROCESS)


def run_split(command, args, processes):
    """Run `processes` processes of seconds/processes each; print one result."""
    at = args.index("--seconds")
    share = str(max(1, round(int(args[at + 1]) / processes)))
    child = command + args[:at + 1] + [share] + args[at + 2:]
    results, digests = [], set()
    for k in range(processes):
        proc = subprocess.run(child, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        if k == 0:
            print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
        digests.update(l.split()[2] for l in lines
                       if l.startswith("perfbench digest "))
    same = len(digests) == 1
    if not same:
        print("perfbench: check failed: processes gave different digests: " +
              " ".join(sorted(digests)), file=sys.stderr)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values), "unit": m["unit"]}
    correct = same and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results) + 1,
        "failed": sum(r["failed"] for r in results) + (0 if same else 1),
        "metrics": metrics}))
    return 0 if correct else 1


def main():
    build()
    args = sys.argv[1:]
    command = [os.path.join(BUILD_DIR, "perfbench"), "--work-dir", WORK_DIR]
    sys.stdout.flush()
    processes = process_count(args)
    if processes > 1:
        return run_split(command, args, processes)
    return subprocess.run(command + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
