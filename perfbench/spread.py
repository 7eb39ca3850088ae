#!/usr/bin/env python3
"""Run one workload under several seeds and summarise each metric's spread.

Run from the repository root, one workload at a time (runs are sequential,
so they do not compete for CPUs):

    python3 perfbench/spread.py --workload stream-long --seeds 1-10 --seconds 20

For each metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share of
the median, which is the spread BENCHMARK.json's bounds are held against.
The failed share of attempted ops is printed too; it must not differ
between seeds. Each run's full report is appended to --log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=os.path.join(".bench_build", "perfbench", "spread.log"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    values, shares = {}, []
    with open(args.log, "a") as log:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, capture_output=True, text=True)
            log.write(res.stdout + res.stderr)
            if res.returncode != 0:
                print("seed %d failed (exit %d):\n%s" % (seed, res.returncode, res.stderr), file=sys.stderr)
                return 1
            last = json.loads(res.stdout.strip().splitlines()[-1])
            shares.append(last["failed"] / last["attempted"])
            line = ["seed=%d correct=%s attempted=%d failed=%d" % (seed, last["correct"], last["attempted"], last["failed"])]
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(" ".join(line), flush=True)
    print("failed share per run: %s" % sorted(set(round(s, 12) for s in shares)))
    print("%-26s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "iqr/med"))
    for name in sorted(values):
        vs = values[name]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("%-26s %14.4f %14.4f %14.4f %8.4f" % (name, med, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
