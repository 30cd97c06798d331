#!/usr/bin/env python3
"""A/B one perfbench workload between two revisions in alternating pairs.

    scripts/ab_bench.py --parent REV --change REV --workload W \\
        [--pairs 10] [--seed 1] [--work-dir DIR]
    scripts/ab_bench.py --self-test

Each revision is `git archive`d into its own directory and its perfbench is
built there (a one-second warm-up run through perfbench/run.py builds it and
must already be correct). Then N pairs of `perfbench/run.py --workload W
--seed SEED --seconds S --trace 0` run, the two sides alternating which goes
first, S being BENCHMARK.json's run_seconds: a shorter run averages fewer
benchmark processes than the benchmark does. N is at least 10, the pairs a
claimed gain is judged on. A run whose result line is not
`"correct": true` stops the A/B.

BENCHMARK.json is read from the parent's tree, whose bounds the change is
judged against. For each end-to-end metric it names, the table gives both
medians, the parent's interquartile range, the change in percent, in how
many pairs the change was better, whether the median gain exceeds the
parent's IQR, and whether a loss stays within the metric's bound.

Two builds compare only in alternating runs: on one host the same binary
can run 10-50% slower from one process to the next. The archives stay in
--work-dir (default: a temporary directory removed at the end), one per
commit, and a later call reuses a built one.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


MIN_PAIRS = 10


class Refused(Exception):
    """A run that cannot count: failed, unparsable or not correct."""


def parse_run(returncode, stdout):
    """(digest, {metric: value}) of one run.py call; Refused unless correct."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise Refused("no result line (exit %d)" % returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        raise Refused("unparsable result line: %s" % e)
    if result.get("correct") is not True:
        raise Refused("result not correct: " + lines[-1])
    if returncode != 0:
        raise Refused("exit %d with a correct result" % returncode)
    digest = next((l.split()[2] for l in lines
                   if l.startswith("perfbench digest ")), "")
    return digest, {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3); the spread perfbench/spread.py reports."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fold(end_to_end, pairs):
    """One row per metric over `pairs`, a list of (parent, change) metric
    dicts from the same pair of runs."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if any(name not in p or name not in c for p, c in pairs):
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        q1, parent_med, q3 = quartiles(parent)
        change_med = statistics.median(change)
        lower = spec["better"] == "lower"
        better = sum(1 for p, c in zip(parent, change)
                     if (c < p if lower else c > p))
        delta = change_med - parent_med
        pct = delta / parent_med if parent_med else 0.0
        gain = -delta if lower else delta
        loss = -pct if not lower else pct  # > 0: the change is worse
        rows.append({
            "metric": name,
            "parent": parent_med,
            "change": change_med,
            "parent_iqr": q3 - q1,
            "pct": pct,
            "better": better,
            "pairs": len(pairs),
            "gain_over_iqr": gain > q3 - q1,
            "within_bound": loss <= spec["bound"],
        })
    return rows


def render(rows):
    head = "%-20s %12s %12s %12s %9s %7s %6s %s" % (
        "metric", "parent_med", "change_med", "parent_iqr", "change",
        "better", ">iqr", "bound")
    out = [head]
    for r in rows:
        out.append("%-20s %12.6g %12.6g %12.6g %+8.1f%% %3d/%-3d %6s %s" % (
            r["metric"], r["parent"], r["change"], r["parent_iqr"],
            100.0 * r["pct"], r["better"], r["pairs"],
            "yes" if r["gain_over_iqr"] else "no",
            "ok" if r["within_bound"] else "PAST BOUND"))
    return "\n".join(out)


def archive(rev, work_dir, name):
    """Extract `rev` into work_dir/name-<commit>; reuse one already there."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True, text=True, check=True).stdout.strip()
    tree = os.path.join(work_dir, "%s-%s" % (name, commit[:12]))
    if not os.path.isdir(tree):
        os.makedirs(tree + ".tmp", exist_ok=True)
        git = subprocess.Popen(["git", "archive", commit],
                               stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".tmp"], stdin=git.stdout,
                       check=True)
        if git.wait() != 0:
            sys.exit("ab_bench: git archive %s failed" % rev)
        os.rename(tree + ".tmp", tree)
    return commit, tree


def run(tree, args, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return parse_run(proc.returncode, proc.stdout)
    except Refused as e:
        sys.stderr.write(proc.stderr)
        sys.exit("ab_bench: %s: %s" % (tree, e))


def ab(args):
    work_dir = args.work_dir or tempfile.mkdtemp(prefix="ab_bench.")
    os.makedirs(work_dir, exist_ok=True)
    try:
        sides = [archive(args.parent, work_dir, "parent"),
                 archive(args.change, work_dir, "change")]
        with open(os.path.join(sides[0][1], "BENCHMARK.json")) as f:
            bench = json.load(f)
        end_to_end = bench["end_to_end"]
        seconds = bench["run_seconds"]
        digests = []
        for commit, tree in sides:
            print("ab_bench: building %s in %s" % (commit[:12], tree),
                  file=sys.stderr)
            digests.append(run(tree, args, 1)[0])
        pairs = []
        for k in range(args.pairs):
            order = [0, 1] if k % 2 == 0 else [1, 0]
            got = {}
            for side in order:
                digest, metrics = run(sides[side][1], args, seconds)
                if digest != digests[side]:
                    sys.exit("ab_bench: %s changed its digest: %s, then %s"
                             % (sides[side][0][:12], digests[side], digest))
                got[side] = metrics
            pairs.append((got[0], got[1]))
            print("ab_bench: pair %d/%d done" % (k + 1, args.pairs),
                  file=sys.stderr)
        print("%s, seed %d: %d alternating pairs of %d s runs" % (
            args.workload, args.seed, args.pairs, seconds))
        print("parent %s digest %s" % (sides[0][0][:12], digests[0]))
        print("change %s digest %s" % (sides[1][0][:12], digests[1]))
        print(render(fold(end_to_end, pairs)))
    finally:
        if not args.work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def canned(wall_s, rounds_per_s, correct=True, digest="869aa469d66f3128"):
    """A run.py stdout as perfbench prints it."""
    return ("perfbench context host=selftest\n"
            "perfbench digest %s workload=book-adv seed=1 seconds=5\n"
            '{"correct": %s, "attempted": 3, "failed": 0, "metrics": '
            '{"wall_s": {"value": %r, "unit": "s"}, '
            '"peer_rounds_per_s": {"value": %r, "unit": "1/s"}}}\n' % (
                digest, "true" if correct else "false", wall_s,
                rounds_per_s))


def self_test():
    """The fold on canned result lines, and the refusals."""
    spec = [{"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "peer_rounds_per_s", "better": "higher", "bound": 0.25},
            {"name": "bytes_per_peer", "better": "lower", "bound": 0.15}]
    parent_wall = [1.0, 1.2, 1.1, 1.3, 0.9]
    change_wall = [0.8, 1.25, 0.85, 1.0, 0.7]
    pairs = []
    for p, c in zip(parent_wall, change_wall):
        _, pm = parse_run(0, canned(p, 100.0 / p))
        digest, cm = parse_run(0, canned(c, 100.0 / c))
        pairs.append((pm, cm))
    failures = []
    if digest != "869aa469d66f3128":
        failures.append("digest read as %r" % digest)
    rows = {r["metric"]: r for r in fold(spec, pairs)}
    if "bytes_per_peer" in rows:
        failures.append("a metric absent from the runs got a row")
    wall = rows["wall_s"]
    expect = {"parent": 1.1, "change": 0.85, "parent_iqr": 1.25 - 0.95,
              "pct": (0.85 - 1.1) / 1.1}
    for key, value in expect.items():
        if abs(wall[key] - value) > 1e-9:
            failures.append("wall_s %s = %r, expected %r"
                            % (key, wall[key], value))
    if (wall["better"], wall["pairs"]) != (4, 5):
        failures.append("wall_s better in %d/%d, expected 4/5"
                        % (wall["better"], wall["pairs"]))
    if wall["gain_over_iqr"] or not wall["within_bound"]:
        failures.append("a 0.25 s gain against a 0.30 s IQR: %r" % wall)
    rate = rows["peer_rounds_per_s"]
    if rate["better"] != 4 or rate["pct"] <= 0 or not rate["gain_over_iqr"]:
        failures.append("higher-is-better metric folded wrong: %r" % rate)
    # The same runs the other way round: a loss past the bound.
    worse = {r["metric"]: r for r in fold(spec, [(c, p) for p, c in pairs])}
    if worse["wall_s"]["within_bound"] or worse["wall_s"]["better"] != 1:
        failures.append("a +29%% loss within a 25%% bound: %r"
                        % worse["wall_s"])
    for returncode, stdout, why in [
            (1, canned(1.0, 100.0, correct=False), "not correct"),
            (0, canned(1.0, 100.0, correct=False), "not correct, exit 0"),
            (1, canned(1.0, 100.0), "correct but failed"),
            (1, "perfbench: build failed\n", "no result line"),
            (0, "{not json\n", "unparsable")]:
        try:
            parse_run(returncode, stdout)
            failures.append("accepted a run that is " + why)
        except Refused:
            pass
    if "%+8.1f%%" % (100.0 * wall["pct"]) not in render(fold(spec, pairs)):
        failures.append("rendered table lacks the change in %")
    for failure in failures:
        print("SELF-TEST FAIL: " + failure)
    if failures:
        return 1
    print("SELF-TEST PASS: medians, IQR, change, better-in-n/N, bounds and "
          "refusals of runs that are not correct")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision the change is judged "
                        "against")
    parser.add_argument("--change", help="revision under test")
    parser.add_argument("--workload", help="a BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work-dir", help="keep the archives and builds "
                        "here (default: a temporary directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the fold on canned result lines")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required "
                     "(or --self-test)")
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
