#!/bin/sh
# CI gate: formatting, vet, build, and the full test suite under the race
# detector. Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== reproducible figures =="
# dffigs must write the same bytes every run: two runs into two fresh
# directories, every file compared.
figs=$(mktemp -d)
go build -o "$figs/dffigs" ./cmd/dffigs
"$figs/dffigs" -dir "$figs/a" >/dev/null
"$figs/dffigs" -dir "$figs/b" >/dev/null
for f in "$figs"/a/*; do
    cmp "$f" "$figs/b/$(basename "$f")" || {
        echo "dffigs: $(basename "$f") differs between two runs" >&2
        exit 1
    }
done
echo "figures byte-identical across two runs: $(ls "$figs/a" | wc -l) files"
rm -rf "$figs"

echo "== go test -race =="
go test -race ./...

echo "== live-telemetry race pin =="
# The concurrent-snapshot path (readers scraping trace.Live while several
# runs emit from their own goroutines) gets a dedicated high-iteration race
# pass: the full-suite -race run above exercises it only once.
go test -race -count=3 -run 'TestLiveConcurrentSnapshot|TestConcurrentScrapeDuringEmission' \
    ./internal/trace/ ./internal/telemetry/

echo "== differential pass quick-check =="
go test -run 'TestDifferential' ./internal/core/

echo "== service admission race pin =="
# The admission controller's contended paths (queue overflow, token
# buckets, cancel-vs-begin CAS, eviction under load) get a dedicated
# repeated race pass; the full-suite -race run exercises each once.
go test -race -count=3 -run 'TestQueueOverflowRejects429|TestTenantThrottle|TestCancelQueuedJob|TestEviction|TestSubmitAfterCloseRejectsShutdown' \
    ./internal/serve/

echo "== job completion race pin =="
# A job's Done channel closes only after its terminal transition is fully
# recorded (spans closed, flight tree, SLO observations); a waiter that
# reads any of them after Done must never see the job unfinished.
go test -race -count=20 -run 'TestDoneClosesAfterRecording' ./internal/serve/

echo "== flight-recorder race pin =="
# Concurrent /debug/flight dumps race live span recording and job traffic;
# the full-suite -race run exercises the interleaving only once.
go test -race -count=3 -run 'TestFlightDumpDuringActiveRuns|TestFlightConcurrentDump' \
    ./internal/serve/ ./internal/obs/

echo "== service load smoke =="
# End-to-end over a real socket: concurrent submissions across both
# admission paths with mid-flight cancels. The binary exits nonzero unless
# every admitted job reaches a terminal state, the admission ledger
# reconciles (submitted == admitted + rejected per tenant), overflow comes
# back as 429, the /metrics exposition passes the Prometheus text-format
# lint, the SLO verdict reads clean, and the goroutine count returns to its
# pre-service baseline after the graceful drain.
go run ./cmd/dfserve -smoke 48 -offload 1000 >/tmp/dfserve-smoke.log 2>&1 || {
    cat /tmp/dfserve-smoke.log
    exit 1
}
grep -E 'exposition lint ok|cache:|slo:|smoke:' /tmp/dfserve-smoke.log
grep -q '^slo: ok$' /tmp/dfserve-smoke.log || {
    echo "service smoke: clean run did not report 'slo: ok'" >&2
    exit 1
}
# The smoke submits only two distinct programs, so the artifact cache must
# serve nearly everything after the first compile of each: gate the
# greppable hit-rate line (hits + coalesced over all lookups) at >= 80%.
rate=$(sed -n 's/^cache: .*hit rate \([0-9]*\)%.*/\1/p' /tmp/dfserve-smoke.log)
if [ -z "$rate" ]; then
    echo "service smoke: no artifact-cache line in the smoke output" >&2
    exit 1
fi
if [ "$rate" -lt 80 ]; then
    echo "service smoke: artifact-cache hit rate $rate% < 80%" >&2
    exit 1
fi

echo "== SLO burn smoke =="
# The degraded path on a real socket: a starved pool with an unmeetable
# queue-wait objective must trip the greppable burn verdict, and the
# flight recorder must hold the offending span trees (dfserve -saturate
# exits nonzero itself if /debug/flight comes back empty).
go run ./cmd/dfserve -smoke 24 -saturate >/tmp/dfserve-burn.log 2>&1 || {
    cat /tmp/dfserve-burn.log
    exit 1
}
grep -E 'slo: burning|debug/flight' /tmp/dfserve-burn.log
grep -q 'slo: burning' /tmp/dfserve-burn.log || {
    echo "SLO burn smoke: saturated run did not report 'slo: burning'" >&2
    exit 1
}
rm -f /tmp/dfserve-smoke.log /tmp/dfserve-burn.log

echo "== batched execution differential sweep =="
# Widening arc state to B lanes must not perturb lane 0: dfsim's stdout with
# -batch B is byte-identical to the scalar run on both simulator cores, and
# on the exec core with and without lane sharding. (The per-lane summary
# goes to stderr.)
go build -o /tmp/dfsim-ci ./cmd/dfsim
for prog in testdata/fig3.val testdata/example1.val; do
    /tmp/dfsim-ci "$prog" >/tmp/dfsim-seq.out
    /tmp/dfsim-ci -machine "$prog" >/tmp/dfsim-mseq.out
    for b in 4 16; do
        for w in 1 4; do
            /tmp/dfsim-ci -batch "$b" -workers "$w" "$prog" >/tmp/dfsim-par.out 2>/dev/null
            cmp /tmp/dfsim-seq.out /tmp/dfsim-par.out || {
                echo "batch sweep: exec lane 0 diverges at B=$b W=$w on $prog" >&2
                exit 1
            }
        done
        /tmp/dfsim-ci -machine -batch "$b" "$prog" >/tmp/dfsim-par.out 2>/dev/null
        cmp /tmp/dfsim-mseq.out /tmp/dfsim-par.out || {
            echo "batch sweep: machine lane 0 diverges at B=$b on $prog" >&2
            exit 1
        }
    done
    echo "lane 0 byte-identical at B in {4,16} on both cores, W in {1,4} on exec: $prog"
done
echo "== placement determinism smoke =="
# Placement decides where packets travel, never what a run computes: the
# machine's output lines (sink value streams) must be byte-identical across
# every -place strategy. Cycle counts legitimately differ, so only the
# "(N elements)" output lines are diffed, not the full stdout.
for prog in testdata/fig3.val testdata/example1.val; do
    /tmp/dfsim-ci -machine "$prog" | grep 'elements' >/tmp/dfsim-seq.out
    for pm in stage random hotspot mincost profile; do
        /tmp/dfsim-ci -machine -place "$pm" "$prog" | grep 'elements' >/tmp/dfsim-par.out
        cmp /tmp/dfsim-seq.out /tmp/dfsim-par.out || {
            echo "placement smoke: machine outputs diverge under -place $pm on $prog" >&2
            exit 1
        }
    done
    echo "outputs byte-identical across all placements: $prog"
done

echo "== cache path identity =="
# A cache hit hands out one shared compiled artifact, and no run writes it:
# on every testdata program the hit validates, runs on the exec core, and
# runs on the placed 8-PE packet-level machine exactly as a fresh compile.
go test -count=1 -run 'TestCacheHitMatchesFreshCompile' ./internal/artifact/

echo "== golden simulator results =="
# Both simulator cores against values recorded before their kernels were
# last rewritten: dfsim -machine -pes 8 -place mincost on all five
# testdata programs and both routing networks (TestPlacedMachineGolden);
# the packet machine under every built-in assignment, split fabrics,
# non-default units, a 4-lane batch and a cut run (TestMachineGolden);
# and the exec core, scalar and batched (TestExecGolden). Cycles, packet
# and firing counts, busy counters, digests of outputs, arrivals and stall
# diagnostics, and Chrome-trace digests.
go test -count=1 -run 'TestPlacedMachineGolden' ./cmd/dfsim/
go test -count=1 -run 'TestMachineGolden' ./internal/machine/
go test -count=1 -run 'TestExecGolden' ./internal/exec/

echo "== placement contention gate =="
# The tentpole claim in one command: re-placing the hotspot demo with the
# min-cost mapping must grade as a contention improvement in dftrace's
# before/after verdict.
go build -o /tmp/dftrace-ci ./cmd/dftrace
/tmp/dftrace-ci -machine -hotspot -place mincost testdata/example1.val >/tmp/dftrace-ci.out
grep 'contention: improved' /tmp/dftrace-ci.out || {
    echo "placement gate: min-cost re-placement did not improve the hotspot demo:" >&2
    tail -5 /tmp/dftrace-ci.out >&2
    exit 1
}
rm -f /tmp/dftrace-ci /tmp/dftrace-ci.out
rm -f /tmp/dfsim-ci /tmp/dfsim-seq.out /tmp/dfsim-mseq.out /tmp/dfsim-par.out

echo "== batched engine race pin =="
# The exec batched engine's lane-sharded worker loops (contiguous lane
# ranges, absolute lane-bit masks, mid-batch cancellation) and both cores'
# batched cancellation get a dedicated repeated race pass; the full-suite
# -race run exercises each shape only once.
go test -race -count=3 -run 'Batch|CancelMidBatch' \
    ./internal/exec/ ./internal/machine/ ./internal/core/ ./internal/serve/

echo "== artifact cache race pin =="
# The cache's contended paths — singleflight coalescing, LRU/byte
# eviction, one shared artifact executing from many goroutines over pooled
# run state — get a dedicated repeated race pass; the full-suite -race run
# exercises each interleaving only once.
go test -race -count=3 -run 'Singleflight|CacheEviction|SharedArtifact|Prepared' \
    ./internal/artifact/ ./internal/core/ ./internal/exec/ ./internal/machine/ ./internal/serve/

echo "== bounded fuzz =="
# FuzzMinCostFlow skips minimizing new corpus entries: a simplex's coverage
# yields many, and from a cold fuzz cache the run executes nothing while it
# minimizes them.
go test -run '^$' -fuzz 'FuzzParse$'     -fuzztime 10s ./internal/val/
go test -run '^$' -fuzz 'FuzzParseExpr$' -fuzztime 10s ./internal/val/
go test -run '^$' -fuzz 'FuzzUnmarshal$' -fuzztime 10s ./internal/graph/
go test -run '^$' -fuzz 'FuzzValue$'     -fuzztime 10s ./internal/value/
go test -run '^$' -fuzz 'FuzzStream$'    -fuzztime 10s ./internal/serve/
go test -run '^$' -fuzz 'FuzzSelection$' -fuzztime 10s ./internal/pe/
go test -run '^$' -fuzz 'FuzzMinCostFlow$' -fuzztime 10s -fuzzminimizetime 0 ./internal/mincost/

echo "== perf gate =="
# Paired perfbench runs of the working tree against its parent commit
# (HEAD): fails on a failed or incorrect run, a larger failed share of ops,
# or an end-to-end median worse than its BENCHMARK.json bound. Takes about
# seven minutes on 2 vCPUs; docs/PERF.md gives the sizing.
python3 scripts/perfgate.py

echo "== benchmark checker and tiny workloads =="
# perfbench is a module of its own, so ./... above does not reach it: run
# its checker tests and one tiny round of every workload, traced and
# untraced. It runs last so that a failure here, which set -e makes fatal,
# cannot hide the result of any step above.
(cd perfbench && go test ./...)

echo "CI OK"
