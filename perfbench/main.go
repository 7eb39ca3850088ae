// Command perfbench measures staticpipe end to end and layer by layer on
// four workloads. Each invocation runs one workload in its own process:
// one closed-loop client, a warm-up pass, then whole rounds of the same
// fixed sequence of ops for at least -seconds of wall time. Host times are
// CPU time of this process (getrusage), which leaves out hypervisor steal;
// wall-clock figures are printed for reference only. Every op's outputs
// are checked outside the timed region.
//
// Usage (perfbench/run.py builds and runs it from the repository root):
//
//	perfbench -workload compile-large -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — the end-to-end ones with -trace 0, the
// per-layer ones, from a run that records spans, with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the untraced run's metrics; lower is better for each.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_p95_ms", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"peak_rss_mib", "MiB"},
	{"sim_cycles_per_op", "cycles"},
	{"cells_per_prog", "cells"},
	{"buffer_stages_per_prog", "stages"},
}

// perLayer are the traced run's metrics: mean self CPU time per op of
// each layer's calls, and the layers' counts.
var perLayer = []metric{
	{"val.parse_ms", "ms"},
	{"val.check_ms", "ms"},
	{"pipestruct.construct_ms", "ms"},
	{"balance.plan_ms", "ms"},
	{"balance.apply_ms", "ms"},
	{"exec.prepare_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"exec.run_ms", "ms"},
	{"core.run_ms", "ms"},
	{"exec.firings_per_op", "firings"},
	{"place.plan_ms", "ms"},
	{"place.cut_cost", "weight"},
	{"machine.prepare_ms", "ms"},
	{"machine.run_ms", "ms"},
	{"machine.packets_per_op", "packets"},
	{"machine.pe_busy_ratio", "ratio"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.compiles_per_op", "compiles"},
	{"serve.codec_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
}

// knownFault reports whether a failure is the one this benchmark keeps
// visible on purpose: iter-reconverge's II above the theorem rate.
func knownFault(label, reason string) bool {
	return label == "iter-reconverge" && reason == reasonII
}

type config struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	setups   int
	minOps   int
	sz       sizes
}

// outcome is one run's tallies and metrics.
type outcome struct {
	attempted, failed, unexpected int
	queued                        int // ops the service answered with 202
	byReason                      map[string]int
	firstFailure                  map[string]string
	rounds                        int
	metrics                       map[string]float64
	wallMsPerOp, wallP50, wallP95 float64
	wall                          time.Duration
	steal                         float64
	setupCPU                      []float64
	beyondP95                     int
	roundMs                       []float64 // each round's CPU ms per op
	spans                         *spans
}

// run sets w up cfg.setups times, then measures whole rounds.
func run(w workload, cfg config) (*outcome, error) {
	var (
		st  *state
		err error
		out = &outcome{byReason: map[string]int{}, firstFailure: map[string]string{}, metrics: map[string]float64{}}
	)
	for i := 0; i < cfg.setups; i++ {
		st = nil
		runtime.GC()
		c0 := cpuTime()
		if st, err = w.setup(cfg.seed, cfg.sz, cfg.traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if st.beginRound != nil {
			st.beginRound()
		}
		for _, o := range st.warmup {
			if _, err := o.do(nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", o.label, err)
			}
		}
		if st.endRound != nil {
			if _, _, err := st.endRound(); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		out.setupCPU = append(out.setupCPU, (cpuTime() - c0).Seconds())
	}

	var sp *spans
	if cfg.traced {
		sp = newSpans(w.name, cfg.seed)
		out.spans = sp
	}
	var (
		cpus, walls                   []float64
		cpuSum                        time.Duration
		allocSum                      uint64
		cycles, firings, packets, cut int64
		busy                          float64
		machineRuns, placements       int
		hits, misses                  int64
		shapes                        = map[string]shape{}
	)
	runtime.GC()
	steal0, wall0 := stealSeconds(), time.Now()
	for {
		if st.beginRound != nil {
			st.beginRound()
		}
		roundCPU := cpuSum
		for _, o := range st.round {
			sp.beginOp(o.label)
			a0, c0, w0 := heapAllocs(), cpuTime(), time.Now()
			r, err := o.do(sp)
			w1, c1, a1 := time.Now(), cpuTime(), heapAllocs()
			sp.endOp()
			cpus = append(cpus, ms(c1-c0))
			walls = append(walls, ms(w1.Sub(w0)))
			cpuSum += c1 - c0
			allocSum += a1 - a0
			out.attempted++

			var f *failure
			if err != nil {
				f = &failure{reasonError, err}
			} else {
				f = o.check(r)
			}
			if f != nil {
				out.failed++
				out.byReason[f.reason]++
				if _, ok := out.firstFailure[f.reason]; !ok {
					out.firstFailure[f.reason] = o.label + ": " + f.err.Error()
				}
				if !knownFault(o.label, f.reason) {
					out.unexpected++
				}
			}
			if r == nil {
				continue
			}
			cycles += int64(r.cycles)
			firings += r.firings
			packets += r.packets
			busy += r.busy
			machineRuns += r.machineRuns
			cut += r.cutCost
			placements += r.placements
			if r.queued {
				out.queued++
			}
			if r.prog != "" {
				shapes[r.prog] = shape{r.cells, r.stages}
			}
		}
		if st.endRound != nil {
			h, m, err := st.endRound()
			if err != nil {
				return nil, err
			}
			hits, misses = hits+h, misses+m
		}
		out.rounds++
		out.roundMs = append(out.roundMs, ms(cpuSum-roundCPU)/float64(len(st.round)))
		if time.Since(wall0).Seconds() >= cfg.seconds && out.attempted >= cfg.minOps {
			break
		}
	}
	out.wall = time.Since(wall0)
	if s0, s1 := steal0, stealSeconds(); s0 >= 0 && s1 >= 0 {
		out.steal = s1 - s0
	} else {
		out.steal = -1
	}
	if st.finalize != nil {
		more, err := st.finalize()
		if err != nil {
			return nil, err
		}
		for k, v := range more {
			shapes[k] = v
		}
	}

	n := float64(out.attempted)
	sort.Float64s(cpus)
	sort.Float64s(walls)
	p95 := quantile(cpus, 0.95)
	for _, c := range cpus {
		if c > p95 {
			out.beyondP95++
		}
	}
	var cells, stages float64
	for _, s := range shapes {
		cells += float64(s.cells)
		stages += float64(s.stages)
	}
	wallSum := 0.0
	for _, x := range walls {
		wallSum += x
	}
	out.wallMsPerOp, out.wallP50, out.wallP95 = wallSum/n, quantile(walls, 0.5), quantile(walls, 0.95)

	m := out.metrics
	m["setup_s"] = median(out.setupCPU)
	m["cpu_ms_per_op"] = ms(cpuSum) / n
	m["op_cpu_p50_ms"] = quantile(cpus, 0.5)
	m["op_cpu_p95_ms"] = p95
	m["alloc_kib_per_op"] = float64(allocSum) / 1024 / n
	m["peak_rss_mib"] = peakRSSMiB()
	m["sim_cycles_per_op"] = float64(cycles) / n
	m["cells_per_prog"] = cells / float64(len(shapes))
	m["buffer_stages_per_prog"] = stages / float64(len(shapes))

	if sp != nil {
		for name, v := range sp.selfMs(out.attempted) {
			m[name+"_ms"] = max(v, 0)
		}
		m["exec.firings_per_op"] = float64(firings) / n
		m["machine.packets_per_op"] = float64(packets) / n
		m["artifact.compiles_per_op"] = float64(misses) / n
		if machineRuns > 0 {
			m["machine.pe_busy_ratio"] = busy / float64(machineRuns)
		}
		if placements > 0 {
			m["place.cut_cost"] = float64(cut) / float64(placements)
		}
		if hits+misses > 0 {
			m["artifact.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		if err := sp.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: compile-large | stream-long | machine-placed | serve-repeat")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measure whole rounds for at least this much wall time")
		trace    = flag.Int("trace", 0, "1 = record spans and report the per-layer metrics")
		traceOut = flag.String("trace-out", ".bench_build/perfbench/trace.json", "Chrome trace file the traced run writes")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut,
		setups: 5, minOps: 200, sz: full}
	out, err := run(*w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(os.Stdout, w.name, cfg, out)
}

// report prints the human-readable report, then the JSON result line.
func report(f *os.File, name string, cfg config, out *outcome) {
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(f, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var reasons []string
	for _, r := range sortedKeys(out.byReason) {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, out.byReason[r]))
	}
	fmt.Fprintf(f, "ops: attempted=%d failed=%d unexpected=%d rounds=%d by reason: [%s]\n",
		out.attempted, out.failed, out.unexpected, out.rounds, strings.Join(reasons, " "))
	for _, r := range sortedKeys(out.firstFailure) {
		fmt.Fprintf(f, "  first %s failure: %s\n", r, out.firstFailure[r])
	}
	if out.queued > 0 {
		fmt.Fprintf(f, "  ops queued by the service (202): %d\n", out.queued)
	}
	if out.steal >= 0 {
		fmt.Fprintf(f, "steal: %.2f s over %.2f s wall (%.1f%% of %d CPUs)\n", out.steal, out.wall.Seconds(),
			100*out.steal/(out.wall.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	} else {
		fmt.Fprintf(f, "steal: unavailable (no /proc/stat)\n")
	}
	fmt.Fprintf(f, "wall (reference only): ms_per_op=%.3f op_p50_ms=%.3f op_p95_ms=%.3f\n",
		out.wallMsPerOp, out.wallP50, out.wallP95)
	fmt.Fprintf(f, "setup CPU s: %v; ops beyond p95: %d\n", out.setupCPU, out.beyondP95)
	rs := append([]float64(nil), out.roundMs...)
	sort.Float64s(rs)
	fmt.Fprintf(f, "per-round cpu_ms_per_op: min=%.3f q1=%.3f median=%.3f q3=%.3f max=%.3f\n",
		rs[0], quantile(rs, 0.25), quantile(rs, 0.5), quantile(rs, 0.75), rs[len(rs)-1])
	if out.spans != nil {
		fmt.Fprintf(f, "traced cpu_ms_per_op: %.4f, of which %.4f in calls only a traced run makes (spans in %s)\n",
			out.metrics["cpu_ms_per_op"], ms(out.spans.parts)/float64(out.attempted), cfg.traceOut)
	}
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.name] = value{out.metrics[m.name], m.unit}
		fmt.Fprintf(f, "  %-26s %14.4f %s\n", m.name, out.metrics[m.name], m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.unexpected == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(line))
}
