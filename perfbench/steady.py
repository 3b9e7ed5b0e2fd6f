#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and set each metric's spread beside its bound.

    python3 perfbench/steady.py --workload scenario-eval [--runs 10] [--first-seed 1]

Each run gets its own seed. For every end-to-end metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json; a spread above a third of the bound is flagged. It also
prints the failed share of every run, which must be identical. With
--traced it runs traced and untraced runs in turns on the same seeds and
prints the tracing overhead on ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if result.returncode != 0:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


def comment_field(line, key):
    return float(next(f.split("=", 1)[1] for f in line.split() if f.startswith(key + "=")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="pair each run with a traced run and report the overhead")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares, overheads = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        comment, result = run_once(args.workload, seed, bench["run_seconds"], 0)
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect")
        shares.append(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        line = f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds)
        if args.traced:
            traced_comment, traced = run_once(args.workload, seed, bench["run_seconds"], 1)
            overhead = 1 - comment_field(traced_comment, "ops_per_s") / comment_field(
                comment, "ops_per_s")
            overheads.append(overhead)
            line += f" tracing_overhead={overhead:.3f}"
        print(line, flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed share per run {sorted(set(shares))}")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[name] / 3 else "  above bound/3"
        print(f"{name:16s} {statistics.median(vals):12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bounds[name]:6.2f}{flag}")
    if overheads:
        print(f"tracing overhead on ops_per_s: median {statistics.median(overheads):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
