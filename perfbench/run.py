#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the traced run's Chrome trace all go
under .bench_build/ in the checkout; nothing is written outside it. The
last line of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("compile-large", "stream-long", "machine-placed", "serve-repeat")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("perfbench: %s holds no staticpipe source tree to build" % root, file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(out, "tmp"),  # the go command's work directories
        XDG_CONFIG_HOME=os.path.join(out, "config"),  # go env and telemetry files
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(out, "perfbench", "trace-%s-%d.json" % (args.workload, args.seed))
    sys.stdout.flush()
    bench_run = subprocess.run([binary, "-workload", args.workload, "-seed", str(args.seed),
                                "-seconds", str(args.seconds), "-trace", str(args.trace),
                                "-trace-out", trace_out], cwd=root)
    return bench_run.returncode


if __name__ == "__main__":
    sys.exit(main())
