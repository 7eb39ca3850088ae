#!/usr/bin/env python3
"""Perf gate: the working tree against its parent commit, on perfbench.

Run from anywhere inside the repository (it takes no flags):

    python3 scripts/perfgate.py

`git archive HEAD` unpacks the parent under .bench_build/parent, which is
deleted on exit; on a clean tree the gate compares the parent with itself.
For every workload in BENCHMARK.json it runs PAIRS pairs of SECONDS-second
untraced runs, one in each checkout with the same seed, alternating which
side goes first. It fails when

  - a run exits non-zero or reports correct: false;
  - the change fails a larger share of its ops than the parent;
  - an end-to-end median is worse than the parent's by more than its bound.

It prints both medians and quartiles of every metric, and names every exact
count that differs within a pair. For each failing workload it then runs one
traced pair and prints the per-layer deltas. docs/PERF.md gives the sizing.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PAIRS = 7
SECONDS = 5
# Host-measured units; a metric in any other unit is a simulated or static
# count, which repeats exactly under one seed.
HOST_UNITS = ("s", "ms", "KiB", "MiB")


def run(bench, side, workload, seed, trace, problems):
    """One perfbench run in side = (label, checkout); its JSON result, or None."""
    label, checkout = side
    res = subprocess.run(bench["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(SECONDS), "--trace", str(trace)],
                         cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        problems.append("%s %s seed=%d: exit %d\n%s" % (workload, label, seed, res.returncode, res.stderr[-2000:]))
        return None
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        problems.append("%s %s seed=%d: correct=false\n%s" % (workload, label, seed, res.stdout[-2000:]))
    return out


def pairs(bench, parent, change, workload, n, trace, problems):
    """n same-seed pairs, alternating which side runs first."""
    base, head = [], []
    for i in range(n):
        order = ((parent, base), (change, head)) if i % 2 == 0 else ((change, head), (parent, base))
        for side, results in order:
            results.append(run(bench, side, workload, i + 1, trace, problems))
    return base, head


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return "%.4g (%.4g-%.4g)" % (med, q1, q3)


def compare(bench, workload, base, head, problems):
    """Prints every metric's medians and exact-count differences; notes failures."""
    fb, ab = sum(r["failed"] for r in base), sum(r["attempted"] for r in base)
    fh, ah = sum(r["failed"] for r in head), sum(r["attempted"] for r in head)
    if fh * ab > fb * ah:
        problems.append("%s: failed share %d/%d, parent %d/%d" % (workload, fh, ah, fb, ab))
    print("%-24s %30s %30s %8s %6s" % (workload, "parent median (q1-q3)", "change median (q1-q3)", "delta", "bound"))
    for m in bench["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        mb, mh = statistics.median(b), statistics.median(h)
        delta = (mh - mb) / mb if mb else (0.0 if mh == mb else float("inf"))
        worse = (delta if m["better"] == "lower" else -delta) > m["bound"]
        print("  %-22s %30s %30s %+7.1f%% %5.0f%%%s" % (name, quartiles(b), quartiles(h), 100 * delta,
                                                    100 * m["bound"], "  WORSE" if worse else ""))
        if worse:
            problems.append("%s: %s median %.4g, parent %.4g (%+.1f%%, bound %.0f%%)" % (
                workload, name, mh, mb, 100 * delta, 100 * m["bound"]))
        if m["unit"] not in HOST_UNITS:
            for seed, (x, y) in enumerate(zip(b, h), 1):
                if x != y:
                    print("  exact count %s differs at seed %d: parent %.6g, change %.6g" % (name, seed, x, y))


def layers(bench, parent, change, workload):
    """One traced pair; prints every per-layer delta and the layer that grew most."""
    noted = []
    base, head = pairs(bench, parent, change, workload, 1, 1, noted)
    if noted:
        print("traced pair of %s failed:\n%s" % (workload, "\n".join(noted)))
        return
    print("%s per layer, one traced pair (seed 1):" % workload)
    grew, most = None, 0.0
    for m in bench["per_layer"]:
        b, h = base[0]["metrics"][m["name"]]["value"], head[0]["metrics"][m["name"]]["value"]
        rel = "%+8.1f%%" % (100 * (h - b) / b) if b else ""
        print("  %-26s %12.4g -> %-12.4g %s" % (m["name"], b, h, rel))
        if m["unit"] == "ms" and h - b > most:
            grew, most = m["name"], h - b
    if grew:
        print("  layer that grew most: %s (+%.4g ms per op)" % (grew, most))


def main():
    sys.stdout.reconfigure(line_buffering=True)
    start = time.time()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent = ("parent", os.path.join(root, ".bench_build", "parent"))
    change = ("change", root)
    shutil.rmtree(parent[1], ignore_errors=True)
    os.makedirs(parent[1])
    problems = []
    try:
        archive = subprocess.run(["git", "archive", "HEAD"], cwd=root, check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", parent[1]], input=archive, check=True)
        failing = []
        for w in bench["workloads"]:
            before = len(problems)
            base, head = pairs(bench, parent, change, w["name"], PAIRS, 0, problems)
            if None not in base + head:
                compare(bench, w["name"], base, head, problems)
            if len(problems) > before:
                failing.append(w["name"])
        for w in failing:
            layers(bench, parent, change, w)
    finally:
        shutil.rmtree(parent[1], ignore_errors=True)
    print("perf gate: %d pairs of %d s per workload, %.0f s wall" % (PAIRS, SECONDS, time.time() - start))
    if problems:
        print("perf gate: FAIL\n" + "\n".join(problems))
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
