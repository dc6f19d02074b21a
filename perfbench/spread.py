#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload lubm-repeat --seeds 1-10 [--trace 0]

For every metric: the median, and the distance between the first and
third quartiles of the values as a share of the median -- the figure
BENCHMARK.json's bounds are set against. Raw (un-normalised) figures
from each run's "raw" line are summarised the same way.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--show", action="store_true", help="print every value")
    args = ap.parse_args()
    values, raws = {}, {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout.splitlines()
        result = json.loads(out[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers")
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        for line in out:
            if line.startswith("raw "):
                for k, v in json.loads(line[4:]).items():
                    raws.setdefault(k, []).append(v)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr, flush=True)
    for title, table in (("metric", values), ("raw", raws)):
        print(f"{title:28s} {'median':>14s} {'IQR/median':>10s}  n")
        for k, vs in table.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = f"{(q3 - q1) / abs(med):10.4f}"
            else:
                spread = f"{'-':>10s}"
            print(f"{k:28s} {med:14.6g} {spread}  {len(vs)}")
            if args.show:
                print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
