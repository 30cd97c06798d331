#!/usr/bin/env python3
"""Render the BM_SimulationCoreScale sweep as a CSV artifact and a
GitHub-flavored markdown table.

Input: a google-benchmark JSON export containing BM_SimulationCoreScale
runs (one per peer count). Output: scaling_curve.csv with columns
(peers, setup_s, round_us_per_round, phase_us_per_round, us_per_peer_round,
bytes_per_peer, peak_rss_bytes, edge_cells_in_use, edge_cell_capacity),
plus the rows up to peak_rss_bytes as a markdown table on stdout — the CI
job appends that to $GITHUB_STEP_SUMMARY. setup_s is the market's
construction plus start(), the overlay bootstrap included. The two
edge-cell columns count the overlay's edge arena at the end of the run,
its cells in use and its fixed size, so its share of bytes_per_peer shows
at every size.

  scaling_curve.py BENCH_scaling.json --csv scaling_curve.csv
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

COLUMNS = ("peers", "setup_s", "round_us_per_round", "phase_us_per_round",
           "us_per_peer_round", "bytes_per_peer", "peak_rss_bytes",
           "edge_cells_in_use", "edge_cell_capacity")


def extract_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = []
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = re.search(r"BM_SimulationCoreScale/peers:(\d+)",
                          bench.get("name", ""))
        if not match:
            continue
        peers = int(match.group(1))
        round_us = float(bench.get("round_us_per_round", 0.0))
        rows.append({
            "peers": peers,
            "setup_s": round(float(bench.get("setup_s", 0.0)), 6),
            "round_us_per_round": round(round_us, 1),
            "phase_us_per_round":
                round(float(bench.get("phase_us_per_round", 0.0)), 1),
            "us_per_peer_round": round(round_us / peers, 4),
            "bytes_per_peer":
                round(float(bench.get("bytes_per_peer", 0.0)), 0),
            "peak_rss_bytes":
                round(float(bench.get("peak_rss_bytes", 0.0)), 0),
            "edge_cells_in_use": int(bench.get("edge_cells_in_use", 0)),
            "edge_cell_capacity": int(bench.get("edge_cell_capacity", 0)),
        })
    rows.sort(key=lambda r: r["peers"])
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def markdown_table(rows: list[dict]) -> str:
    lines = [
        "### Simulation-core scaling curve",
        "",
        "| peers | setup ms | µs/round | purchase µs/round | µs/(peer·round) "
        "| bytes/peer | peak RSS |",
        "|------:|---------:|---------:|------------------:|----------------:"
        "|-----------:|---------:|",
    ]
    for r in rows:
        rss_mb = r["peak_rss_bytes"] / 1e6
        lines.append(
            f"| {r['peers']:,} | {r['setup_s'] * 1e3:,.1f} "
            f"| {r['round_us_per_round']:,.0f} "
            f"| {r['phase_us_per_round']:,.0f} "
            f"| {r['us_per_peer_round']:.3f} "
            f"| {r['bytes_per_peer']:,.0f} | {rss_mb:,.0f} MB |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark_json")
    parser.add_argument("--csv", help="write scaling_curve.csv here")
    args = parser.parse_args()

    rows = extract_rows(args.benchmark_json)
    if not rows:
        print(f"ERROR: no BM_SimulationCoreScale rows in "
              f"{args.benchmark_json}", file=sys.stderr)
        return 1
    if args.csv:
        write_csv(rows, args.csv)
    print(markdown_table(rows))
    return 0


if __name__ == "__main__":
    return_code = main()
    sys.exit(return_code)
