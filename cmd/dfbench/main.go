// dfbench regenerates the reproduction's experiments: E1–E17 of
// DESIGN.md, one per figure and quantitative claim of the paper, and
// E19–E22 on the service, batching, placement and the artifact cache
// (docs/PERF.md, docs/SERVICE.md). Each runs its workload and prints a
// table of paper-claim versus measured value; EXPERIMENTS.md is the
// archived output of E1–E17 with commentary.
//
// Usage:
//
//	dfbench [-quick] [-only E7] [-json FILE] [-metrics] [-trace PREFIX]
//
// -json writes every experiment's headline numbers as machine-readable
// records; -metrics prints a per-cell digest after each simulated run;
// -trace PREFIX writes one Chrome trace-event JSON file per run. The
// program's speed is measured by perfbench (BENCHMARK.json), not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/balance"
	"staticpipe/internal/buildinfo"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/recurrence"
	"staticpipe/internal/serve"
	"staticpipe/internal/trace"
	"staticpipe/internal/trace/analyze"
	"staticpipe/internal/value"
)

var (
	quick    = flag.Bool("quick", false, "smaller problem sizes")
	only     = flag.String("only", "", "run a single experiment, e.g. E7")
	jsonOut  = flag.String("json", "", "write results as machine-readable JSON (e.g. BENCH_run.json)")
	metricsF = flag.Bool("metrics", false, "print a per-cell metrics digest after each simulated run")
	tracePfx = flag.String("trace", "", "write Chrome trace-event JSON per run to PREFIX-NNN-label.json")
	version  = flag.Bool("version", false, "print version and build info, then exit")
)

// benchRecord is one headline number in -json output.
type benchRecord struct {
	Exp    string  `json:"exp"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

var (
	records []benchRecord
	curExp  string
)

// record captures one headline number under the current experiment.
func record(metric string, v float64) {
	records = append(records, benchRecord{Exp: curExp, Metric: metric, Value: v})
}

var traceSeq int

// runTracer builds the tracer for one simulated run; both returns are
// no-ops unless -metrics or -trace is set. Call finish after the run.
func runTracer(label string) (tr trace.Tracer, finish func()) {
	if !*metricsF && *tracePfx == "" {
		return nil, func() {}
	}
	var multi trace.Multi
	var agg *trace.Metrics
	if *metricsF {
		agg = trace.NewMetrics()
		multi = append(multi, agg)
	}
	var chrome *trace.Chrome
	var f *os.File
	var name string
	if *tracePfx != "" {
		traceSeq++
		name = fmt.Sprintf("%s-%03d-%s.json", *tracePfx, traceSeq, label)
		var err error
		f, err = os.Create(name)
		if err != nil {
			fatal(err)
		}
		chrome = trace.NewChrome(f)
		multi = append(multi, chrome)
	}
	return multi, func() {
		if agg != nil {
			fmt.Printf("  -- metrics (%s) --\n%s", label, agg.Summary(6))
		}
		if chrome != nil {
			if err := chrome.Close(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("  wrote trace %s\n", name)
		}
	}
}

// experiment is one table of the suite; size is the problem size it runs
// at, quickSize the one under -quick.
type experiment struct {
	id, title       string
	run             func(size int)
	size, quickSize int
}

var experiments = []experiment{
	{"E1", "Fig 2: scalar pipeline at the maximum rate", e1, 1024, 128},
	{"E2", "§3: rate independent of stage count", e2, 512, 64},
	{"E3", "Fig 4: gated array selection", e3, 1024, 128},
	{"E4", "Fig 5: pipelined conditional", e4, 1024, 128},
	{"E5", "Fig 6 / Example 1: primitive forall (Theorem 2)", e5, 1024, 128},
	{"E6", "Fig 7: Todd's for-iter scheme (rate 1/3)", e6, 1024, 128},
	{"E7", "Fig 8: companion scheme (Theorem 3, rate 1/2)", e7, 1024, 128},
	{"E8", "Fig 3: composed pipe-structured program (Theorem 4)", e8, 1024, 128},
	{"E9", "§8: balancing time and optimal buffering", e9, 1000, 200},
	{"E10", "§9: delay-for-rate interleaved recurrences", e10, 256, 64},
	{"E11", "§7: companion tree of log₂(p) levels", e11, 0, 0},
	{"E12", "§2: array-memory packet fraction ≤ 1/8", e12, 64, 32},
	{"E13", "machine-level throughput vs PE count", e13, 128, 48},
	{"E14", "§6: forall pipeline vs parallel scheme", e14, 48, 24},
	{"E15", "§9 extension: two-dimensional arrays", e15, 24, 12},
	{"E16", "ablations: control realization, network, placement", e16, 64, 24},
	{"E17", "ablation: common-cell elimination", e17, 256, 64},
	{"E19", "service layer: jobs/sec through admission + worker pool", e19, 1024, 256},
	{"E20", "batched multi-stream execution: B-lane amortization", e20, 512, 512},
	{"E21", "contention-aware placement: min-cost mapping vs bystage/hotspot", e21, 256, 96},
	{"E22", "artifact cache: admission jobs/sec at 0/50/95% hit rates", e22, 24, 12},
}

// selectExperiments returns the experiment -only names (case-insensitive),
// or every experiment when it is empty.
func selectExperiments(only string) ([]experiment, error) {
	if only == "" {
		return experiments, nil
	}
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		if strings.EqualFold(only, e.id) {
			return []experiment{e}, nil
		}
		ids[i] = e.id
	}
	return nil, fmt.Errorf("unknown experiment %q; -only takes one of %s", only, strings.Join(ids, " "))
}

func main() {
	flag.Parse()
	if *version {
		fmt.Println("dfbench " + buildinfo.String())
		return
	}
	sel, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfbench: %v\nusage: dfbench [-quick] [-only ID] [-json FILE] [-metrics] [-trace PREFIX]\n", err)
		os.Exit(2)
	}
	for _, e := range sel {
		size := e.size
		if *quick {
			size = e.quickSize
		}
		curExp = e.id
		fmt.Printf("=== %s — %s ===\n", e.id, e.title)
		start := time.Now()
		e.run(size)
		fmt.Printf("(%.2fs)\n\n", time.Since(start).Seconds())
	}
	if *jsonOut != "" {
		out := struct {
			Tool    string        `json:"tool"`
			Quick   bool          `json:"quick"`
			Results []benchRecord `json:"results"`
		}{Tool: "dfbench", Quick: *quick, Results: records}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n", len(records), *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// run compiles and runs a program, returning the result. The tracer
// travels in a Binding, never in the compile options.
func run(p progs.Program, opts core.Options) (*core.Artifact, *core.RunResult) {
	tr, finish := runTracer(p.Name)
	art, err := core.CompileArtifact(p.Source, opts)
	if err != nil {
		fatal(err)
	}
	res, err := art.Run(core.Binding{Tracer: tr}, p.Inputs)
	if err != nil {
		fatal(err)
	}
	finish()
	return art, res
}

// execRun runs a hand-built graph on the firing-rule simulator.
func execRun(g *graph.Graph) *exec.Result {
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		fatal(err)
	}
	return res
}

// machineRun runs a compiled program on the packet-level machine under the
// bench tracer; cfg.Inputs binds its input streams for this run.
func machineRun(label string, art *core.Artifact, cfg machine.Config) *machine.Result {
	mp, err := art.Machine()
	if err != nil {
		fatal(err)
	}
	tr, finish := runTracer(label)
	cfg.Tracer = tr
	res, err := mp.Run(cfg)
	if err != nil {
		fatal(err)
	}
	finish()
	return res
}

func e1(n int) {
	p := progs.Fig2(n)
	_, res := run(p, core.Options{})
	fmt.Printf("  %-34s paper: II = 2      measured: II = %.3f over %d results\n",
		"fully pipelined scalar pipe", res.II(p.Output), n)
	record("ii", res.II(p.Output))
}

func e2(n int) {
	fmt.Printf("  paper: \"the computation rate of a pipeline is not dependent on the number of stages\"\n")
	fmt.Printf("  %8s  %14s  %10s\n", "stages", "II (cycles)", "latency")
	for _, stages := range []int{4, 16, 64, 256} {
		g := graph.New()
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i)
		}
		prev := g.AddSource("in", value.Reals(vals))
		for s := 0; s < stages; s++ {
			id := g.Add(graph.OpID, "")
			g.Connect(prev, id, 0)
			prev = id
		}
		g.Connect(prev, g.AddSink("out"), 0)
		res := execRun(g)
		fmt.Printf("  %8d  %14.3f  %10d\n", stages, res.II("out"), res.Arrivals["out"][0])
		record(fmt.Sprintf("ii_stages_%d", stages), res.II("out"))
	}
}

func e3(m int) {
	p := progs.Fig4(m)
	_, bal := run(p, core.Options{})
	_, unbal := run(p, core.Options{Passes: "none"})
	fmt.Printf("  paper: selection + FIFO skew buffers give full pipelining\n")
	fmt.Printf("  %-12s  II = %.3f\n", "balanced", bal.II(p.Output))
	fmt.Printf("  %-12s  II = %.3f\n", "unbalanced", unbal.II(p.Output))
	record("ii_balanced", bal.II(p.Output))
	record("ii_unbalanced", unbal.II(p.Output))
}

func e4(n int) {
	p := progs.Fig5(n)
	_, bal := run(p, core.Options{})
	_, unbal := run(p, core.Options{Passes: "none"})
	fmt.Printf("  paper: gated arms + MERGE, \"fully pipelined ... only if all paths are of equal length\"\n")
	fmt.Printf("  %-12s  II = %.3f\n", "balanced", bal.II(p.Output))
	fmt.Printf("  %-12s  II = %.3f\n", "unbalanced", unbal.II(p.Output))
	record("ii_balanced", bal.II(p.Output))
	record("ii_unbalanced", unbal.II(p.Output))
}

func e5(m int) {
	p := progs.Example1(m)
	art, res := run(p, core.Options{})
	stats := art.Compiled.Graph.ComputeStats()
	fmt.Printf("  paper (Theorem 2): every primitive forall is fully pipelined\n")
	fmt.Printf("  m=%d: II = %.3f, cells = %d (buffer stages %d)\n",
		m, res.II(p.Output), stats.Cells, stats.BufferUnits)
	record("ii", res.II(p.Output))
	record("cells", float64(stats.Cells))
	if err := art.Validate(p.Inputs, 1e-9); err != nil {
		fatal(err)
	}
	fmt.Printf("  outputs match the reference interpreter\n")
}

func e6(m int) {
	p := progs.Example2(m)
	_, res := run(p, core.Options{ForIterScheme: foriter.Todd})
	fmt.Printf("  paper: \"the initialization rate of the pipeline can not be higher than 1/3\"\n")
	fmt.Printf("  Todd scheme: II = %.3f (rate %.3f)\n", res.II(p.Output), 1/res.II(p.Output))
	record("ii_todd", res.II(p.Output))
}

func e7(m int) {
	p := progs.Example2(m)
	_, todd := run(p, core.Options{ForIterScheme: foriter.Todd})
	art, comp := run(p, core.Options{ForIterScheme: foriter.Companion})
	fmt.Printf("  paper (Theorem 3): the companion pipeline restores the maximum rate\n")
	fmt.Printf("  %-12s  II = %.3f\n", "todd", todd.II(p.Output))
	fmt.Printf("  %-12s  II = %.3f\n", "companion", comp.II(p.Output))
	fmt.Printf("  speedup %.2fx\n", todd.II(p.Output)/comp.II(p.Output))
	record("ii_todd", todd.II(p.Output))
	record("ii_companion", comp.II(p.Output))
	record("speedup", todd.II(p.Output)/comp.II(p.Output))
	if err := art.Validate(p.Inputs, 1e-9); err != nil {
		fatal(err)
	}
	fmt.Printf("  outputs match the reference interpreter (within FP reassociation)\n")
}

func e8(m int) {
	p := progs.Fig3(m)
	art, res := run(p, core.Options{})
	pred, err := art.PredictII()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  paper (Theorem 4): the composed program is fully pipelined\n")
	fmt.Printf("  end-to-end II = %.3f, predicted %s\n", res.II(p.Output), pred)
	record("ii", res.II(p.Output))
	record("ii_predicted", pred.Float())
	for _, blk := range art.Compiled.Blocks {
		fmt.Printf("  block %-4s %-8s scheme=%s\n", blk.Name, blk.Form, blk.Scheme)
	}
}

func e9(n int) {
	fmt.Printf("  paper (§8): balancing is polynomial; optimum buffering = LP dual of min-cost flow\n")
	fmt.Printf("  %8s  %16s  %16s  %12s\n", "cells", "naive buffers", "optimal buffers", "reduction")
	for _, size := range []int{n / 8, n / 4, n} {
		rng := rand.New(rand.NewSource(9))
		var cons []balance.Constraint
		for u := 0; u < size; u++ {
			for k := 0; k < 3; k++ {
				v := u + 1 + rng.Intn(size-u)
				if v < size {
					cons = append(cons, balance.Constraint{U: u, V: v, W: 1})
				}
			}
		}
		naive, err := balance.Naive(size, cons)
		if err != nil {
			fatal(err)
		}
		opt, err := balance.Solve(size, cons)
		if err != nil {
			fatal(err)
		}
		nb, ob := balance.TotalSlack(cons, naive), balance.TotalSlack(cons, opt)
		fmt.Printf("  %8d  %16d  %16d  %11.1f%%\n", size, nb, ob, 100*float64(nb-ob)/float64(nb))
		record(fmt.Sprintf("naive_buffers_%d", size), float64(nb))
		record(fmt.Sprintf("optimal_buffers_%d", size), float64(ob))
	}
}

func e10(n int) {
	fmt.Printf("  paper (§9): a FIFO delay restores the maximum rate for interleaved recurrences\n")
	fmt.Printf("  %8s  %12s  %14s\n", "rows", "FIFO stages", "II (cycles)")
	for _, rows := range []int{2, 4, 8, 16} {
		g := graph.New()
		av := make([]value.Value, rows*n)
		bv := make([]value.Value, rows*n)
		for j := range av {
			av[j] = value.R(0.6)
			bv[j] = value.R(float64(j%5) - 2)
		}
		out, err := foriter.InterleavedLinear(g, "x", rows, n,
			g.AddSource("a", av), g.AddSource("b", bv),
			value.Reals(make([]float64, rows)))
		if err != nil {
			fatal(err)
		}
		g.Connect(out, g.AddSink("x"), 0)
		res := execRun(g)
		fmt.Printf("  %8d  %12d  %14.3f\n", rows, 2*rows-3, res.II("x"))
		record(fmt.Sprintf("ii_rows_%d", rows), res.II("x"))
	}
}

func e11(int) {
	fmt.Printf("  paper (§7): G is associative, so a log2(p)-level companion tree suffices\n")
	fmt.Printf("  %8s  %12s  %14s\n", "p", "tree levels", "linear levels")
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 4, 8, 16} {
		ps := make([]recurrence.Param, p)
		for i := range ps {
			ps[i] = recurrence.Param{A: rng.Float64(), B: rng.Float64()}
		}
		tree := recurrence.ComposeTree(ps)
		fold := ps[0]
		for i := 1; i < p; i++ {
			fold = recurrence.G(ps[i], fold)
		}
		agree := "agree"
		if !value.Close(value.R(tree.A), value.R(fold.A), 1e-9) ||
			!value.Close(value.R(tree.B), value.R(fold.B), 1e-9) {
			agree = "DIFFER"
		}
		fmt.Printf("  %8d  %12d  %14d  (tree and fold %s)\n",
			p, recurrence.TreeDepth(p), p-1, agree)
	}
}

func e12(m int) {
	src := fmt.Sprintf(`
param m = %d;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
    Q : real := P*P + 0.5*P + 1.;
    S : real := Q*Q - P*Q + 2.*P;
  construct B[i]*(S*S) + Q
  endall;
output A;
`, m)
	art, err := core.CompileArtifact(src, core.Options{})
	if err != nil {
		fatal(err)
	}
	bs := make([]value.Value, m+2)
	cs := make([]value.Value, m+2)
	for i := range bs {
		bs[i] = value.R(1)
		cs[i] = value.R(float64(i))
	}
	res := machineRun("e12-am-fraction", art, machine.Config{PEs: 8, AMs: 2,
		Inputs: map[string][]value.Value{"B": bs, "C": cs}})
	fmt.Printf("  paper: \"one eighth or less of the operation packets would be sent to the array memories\"\n")
	fmt.Printf("  measured AM fraction: %.4f of %d packets (result %d, ack %d, operation %d)\n",
		res.AMFraction(), res.TotalPackets,
		res.Packets["result"], res.Packets["ack"], res.Packets["operation"])
	record("am_fraction", res.AMFraction())
	record("total_packets", float64(res.TotalPackets))
}

func e13(m int) {
	p := progs.Fig3(m)
	art, err := core.CompileArtifact(p.Source, core.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  machine-level makespan of the Fig 3 program (crossbar network, 4 AMs)\n")
	fmt.Printf("  %8s  %14s  %14s\n", "PEs", "cycles", "PE util")
	for _, pes := range []int{1, 2, 4, 8, 16, 32} {
		res := machineRun(fmt.Sprintf("e13-pes-%d", pes), art, machine.Config{PEs: pes, AMs: 4, Inputs: p.Inputs})
		fmt.Printf("  %8d  %14d  %13.1f%%\n", pes, res.Cycles, 100*res.Utilization())
		record(fmt.Sprintf("cycles_pes_%d", pes), float64(res.Cycles))
		record(fmt.Sprintf("util_pes_%d", pes), res.Utilization())
	}
}

func e15(m int) {
	src := fmt.Sprintf(`
param m = %d;
param n = %d;
input U : array2[real] [0, m+1][0, n+1];
V : array2[real] :=
  forall i in [0, m+1], j in [0, n+1]
  construct if (i = 0) | (i = m+1) | (j = 0) | (j = n+1)
            then U[i, j]
            else 0.25 * (U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1])
            endif
  endall;
output V;
`, m, m)
	art, err := core.CompileArtifact(src, core.Options{})
	if err != nil {
		fatal(err)
	}
	side := m + 2
	us := make([]value.Value, side*side)
	for i := range us {
		us[i] = value.R(float64(i%7) / 7)
	}
	inputs := map[string][]value.Value{"U": us}
	if err := art.Validate(inputs, 1e-12); err != nil {
		fatal(err)
	}
	res, err := art.Run(core.Binding{}, inputs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  paper (§9): \"the extension ... to array values of multiple dimension is straightforward\"\n")
	fmt.Printf("  %dx%d five-point Jacobi sweep: II = %.3f, matches the interpreter\n",
		side, side, res.II("V"))
	record("ii", res.II("V"))
}

func e16(m int) {
	p := progs.Example1(m)
	fmt.Printf("  control-stream realization (Example 1, m=%d):\n", m)
	for _, s := range []struct {
		name string
		opt  core.Options
	}{
		{"idealized generators", core.Options{}},
		{"literal counter subgraphs", core.Options{LiteralControl: true}},
	} {
		art, res := run(p, s.opt)
		fmt.Printf("    %-26s cells=%4d  II=%.3f\n", s.name,
			art.Compiled.Graph.ComputeStats().Cells, res.II(p.Output))
		key := strings.ReplaceAll(s.name, " ", "_")
		record("ii_"+key, res.II(p.Output))
		record("cells_"+key, float64(art.Compiled.Graph.ComputeStats().Cells))
	}

	fp := progs.Fig3(m)
	fart, err := core.CompileArtifact(fp.Source, core.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  routing network (Fig 3, 8 PEs):\n")
	for _, nk := range []machine.NetworkKind{machine.Crossbar, machine.Butterfly} {
		res := machineRun(fmt.Sprintf("e16-net-%s", nk), fart,
			machine.Config{PEs: 8, AMs: 4, Network: nk, Inputs: fp.Inputs})
		fmt.Printf("    %-26s cycles=%5d\n", nk, res.Cycles)
		record(fmt.Sprintf("cycles_net_%s", nk), float64(res.Cycles))
	}
	fmt.Printf("  cell placement (Fig 3, 8 PEs, crossbar):\n")
	for _, as := range []machine.Assignment{machine.RoundRobin, machine.Random, machine.ByStage} {
		res := machineRun(fmt.Sprintf("e16-assign-%s", as), fart,
			machine.Config{PEs: 8, AMs: 4, Assign: as, Seed: 5, Inputs: fp.Inputs})
		fmt.Printf("    %-26s cycles=%5d\n", as, res.Cycles)
		record(fmt.Sprintf("cycles_assign_%s", as), float64(res.Cycles))
	}
}

func e17(m int) {
	p := progs.Fig3(m)
	fmt.Printf("  hash-consing duplicate cells (Fig 3, m=%d):\n", m)
	for _, s := range []struct {
		name string
		opt  core.Options
	}{
		{"plain", core.Options{}},
		{"dedup", core.Options{Passes: "dedup,balance"}},
	} {
		art, res := run(p, s.opt)
		fmt.Printf("    %-8s cells=%3d (removed %d)  II=%.3f\n", s.name,
			art.Compiled.Graph.ComputeStats().Cells, art.Compiled.Deduped, res.II(p.Output))
		record("ii_"+s.name, res.II(p.Output))
		record("cells_"+s.name, float64(art.Compiled.Graph.ComputeStats().Cells))
	}
}

func e14(m int) {
	p := progs.Example1(m)
	fmt.Printf("  paper (§6): the parallel scheme replicates the body per element\n")
	fmt.Printf("  %-10s  %8s  %12s\n", "scheme", "cells", "II (cycles)")
	for _, s := range []struct {
		name string
		opt  core.Options
	}{
		{"pipeline", core.Options{ForallScheme: forall.Pipeline}},
		{"parallel", core.Options{ForallScheme: forall.Parallel}},
	} {
		art, res := run(p, s.opt)
		fmt.Printf("  %-10s  %8d  %12.3f\n", s.name,
			art.Compiled.Graph.ComputeStats().Cells, res.II(p.Output))
		record("ii_"+s.name, res.II(p.Output))
		record("cells_"+s.name, float64(art.Compiled.Graph.ComputeStats().Cells))
	}
}

// e20Scale builds w independent arithmetic lanes of d stages each: a wide,
// compute-bound elementwise graph (E20's "scale" workload).
func e20Scale(w, d, n int) *graph.Graph {
	g := graph.New()
	for k := 0; k < w; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + k)
		}
		prev := g.AddSource(fmt.Sprintf("in%d", k), value.Reals(vals))
		for s := 0; s < d; s++ {
			op := graph.OpAdd
			if s%2 == 1 {
				op = graph.OpMul
			}
			c := g.Add(op, "")
			g.Connect(prev, c, 0)
			g.SetLiteral(c, 1, value.R(float64(s%3)+1))
			prev = c
		}
		g.Connect(prev, g.AddSink(fmt.Sprintf("out%d", k)), 0)
	}
	return g
}

// e19 measures the service layer itself: jobs/sec through admission
// control and the worker pool when every job is offloaded, across queue
// depths. Depth 1 serializes admission against the pool (every submit
// races one free slot), depth 64 decouples them; the spread between the
// two is the queueing overhead the admission controller adds on top of
// raw simulation. Submitters retry 429s, so the figure includes the
// back-off cost a real client would pay.
func e19(n int) {
	const jobs, submitters = 32, 8
	p := progs.Fig2(n)
	in := make(map[string]serve.Stream, len(p.Inputs))
	for k, v := range p.Inputs {
		in[k] = v
	}
	fmt.Printf("  %d offloaded jobs (Fig 2, n=%d) from %d submitters, pool=%d\n",
		jobs, n, submitters, runtime.GOMAXPROCS(0))
	fmt.Printf("  %6s  %10s  %12s\n", "depth", "jobs/sec", "retries")
	for _, depth := range []int{1, 8, 64} {
		svc := serve.New(serve.Config{OffloadThreshold: -1, QueueDepth: depth})
		start := time.Now()
		var wg sync.WaitGroup
		var retries int64
		done := make([]*serve.Job, jobs)
		wg.Add(submitters)
		for s := 0; s < submitters; s++ {
			go func(s int) {
				defer wg.Done()
				for i := s; i < jobs; i += submitters {
					for {
						j, rej := svc.Submit(nil, serve.Spec{Source: p.Source, Inputs: in})
						if rej == nil {
							done[i] = j
							break
						}
						if rej.Reason != serve.ReasonQueueFull {
							fatal(rej)
						}
						atomic.AddInt64(&retries, 1)
						time.Sleep(200 * time.Microsecond)
					}
				}
			}(s)
		}
		wg.Wait()
		for _, j := range done {
			<-j.Done()
		}
		wall := time.Since(start)
		jps := float64(jobs) / wall.Seconds()
		fmt.Printf("  %6d  %10.1f  %12d\n", depth, jps, retries)
		record(fmt.Sprintf("jobs_per_sec_depth_%d", depth), jps)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := svc.Close(ctx); err != nil {
			fatal(err)
		}
		cancel()
	}
}

// e22Chain synthesizes a k-block forall chain: each block is a cheap
// elementwise pass over the previous array, so compile cost (parse, check,
// graph construction, balancing) grows linearly with k while a run moves
// only m tokens per block. That is the compile-dominated regime the
// artifact cache targets — and salt lands in a literal, so every salt is a
// distinct source and therefore a distinct cache key.
func e22Chain(k, m, salt int) (src string, inputs map[string]serve.Stream) {
	var b strings.Builder
	fmt.Fprintf(&b, "param m = %d;\ninput U : array[real] [0, m+1];\n", m)
	prev := "U"
	for s := 0; s < k; s++ {
		cur := fmt.Sprintf("S%d", s)
		fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct %d. + 0.25 * %s[i]\n  endall;\n",
			cur, salt, prev)
		prev = cur
	}
	fmt.Fprintf(&b, "output %s;\n", prev)
	vals := make([]value.Value, m+2)
	for i := range vals {
		vals[i] = value.R(float64(i))
	}
	return b.String(), map[string]serve.Stream{"U": vals}
}

// e22 measures what the artifact cache buys at the admission boundary:
// jobs/sec through Submit and mean admission latency over a repeat-heavy
// submission mix. Each mix fixes the number of distinct programs so the
// expected cache hit rate is 0%, 50%, or 95%; repeats are drawn from a
// seeded Zipf, so a popular head dominates the way real multi-tenant
// traffic does. The same mix runs twice — cache disabled, then enabled —
// and the speedup at 95% is the headline number: with hot programs cached,
// admission skips the compiler entirely and the submit wall collapses
// toward pure admission-control cost. The issue's acceptance gate wants
// >= 5x there.
func e22(n int) {
	const jobs, submitters = 80, 8
	fmt.Printf("  %d offloaded jobs (%d-block chains) from %d submitters\n", jobs, n, submitters)
	fmt.Printf("  %8s  %6s  %10s  %12s  %9s\n", "hit mix", "cache", "jobs/sec", "adm. mean", "speedup")
	for _, mix := range []struct {
		label    string
		key      string
		distinct int
	}{
		{"0%", "hit0", jobs},
		{"50%", "hit50", jobs / 2},
		{"95%", "hit95", jobs / 20},
	} {
		// Deterministic assignment: every distinct program appears once (the
		// compulsory misses), then the Zipf picks which ones repeat.
		rng := rand.New(rand.NewSource(22))
		zipf := rand.NewZipf(rng, 1.3, 1, uint64(mix.distinct-1))
		specs := make([]serve.Spec, jobs)
		for i := range specs {
			pi := i
			if i >= mix.distinct {
				pi = int(zipf.Uint64())
			}
			src, in := e22Chain(n, 8, pi)
			specs[i] = serve.Spec{Tenant: fmt.Sprintf("t%d", i%4), Source: src, Inputs: in}
		}
		var jps [2]float64
		for _, cached := range []bool{false, true} {
			cfg := serve.Config{OffloadThreshold: -1, QueueDepth: jobs, PoolWorkers: 1}
			if cached {
				cfg.Cache = artifact.New(artifact.Config{})
			}
			svc := serve.New(cfg)
			var admNanos int64
			done := make([]*serve.Job, jobs)
			start := time.Now()
			var wg sync.WaitGroup
			wg.Add(submitters)
			for s := 0; s < submitters; s++ {
				go func(s int) {
					defer wg.Done()
					for i := s; i < jobs; i += submitters {
						t0 := time.Now()
						j, rej := svc.Submit(nil, specs[i])
						atomic.AddInt64(&admNanos, time.Since(t0).Nanoseconds())
						if rej != nil {
							fatal(rej)
						}
						done[i] = j
					}
				}(s)
			}
			wg.Wait()
			// The submit wall stops here: the queue is deep enough that no
			// Submit ever blocked on execution, so this is admission +
			// compile (or cache lookup) cost alone.
			wall := time.Since(start)
			for _, j := range done {
				<-j.Done()
			}
			rate := float64(jobs) / wall.Seconds()
			admMean := time.Duration(admNanos / jobs)
			arm, idx := "off", 0
			if cached {
				arm, idx = "on", 1
			}
			jps[idx] = rate
			record(fmt.Sprintf("jobs_per_sec_%s_cache_%s", mix.key, arm), rate)
			record(fmt.Sprintf("adm_mean_us_%s_cache_%s", mix.key, arm), float64(admMean.Microseconds()))
			if cached {
				fmt.Printf("  %8s  %6s  %10.0f  %12s  %8.1fx\n", mix.label, arm, rate, admMean, jps[1]/jps[0])
			} else {
				fmt.Printf("  %8s  %6s  %10.0f  %12s  %9s\n", mix.label, arm, rate, admMean, "-")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := svc.Close(ctx); err != nil {
				fatal(err)
			}
			cancel()
		}
		record("admission_speedup_"+mix.key, jps[1]/jps[0])
	}
}

// e20Route builds w independent d-stage identity pipelines: the pure
// array-move kernel (§2's array-memory streaming), where per-lane marginal
// work is one token copy. It bounds the batched engine's amortization from
// above, with e20Scale's elementwise-arithmetic lanes as the compute-bound
// companion kernel.
func e20Route(w, d, n int) *graph.Graph {
	g := graph.New()
	for k := 0; k < w; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + k)
		}
		prev := g.AddSource(fmt.Sprintf("in%d", k), value.Reals(vals))
		for s := 0; s < d; s++ {
			id := g.Add(graph.OpID, "")
			g.Connect(prev, id, 0)
			prev = id
		}
		g.Connect(prev, g.AddSink(fmt.Sprintf("out%d", k)), 0)
	}
	return g
}

// e20 measures what batching buys: B independent input streams advance
// through one compiled graph in a single run, so per-cycle planning and
// bookkeeping amortize over B lanes. The rate is lane-cycles per second of
// this process's CPU time (getrusage around each run), so time a
// hypervisor steals from the vCPUs does not count; the B=16 vs B=1 ratio is
// the amortization factor.
func e20(n int) {
	fmt.Printf("  batched engine: lane-cycles per CPU-second, %d elements/lane\n", n)
	fmt.Printf("  %-28s %5s  %17s  %9s\n", "kernel", "B", "lane-cycles/cpu-s", "speedup")
	kernels := []struct {
		key, title string
		mk         func() *graph.Graph
	}{
		{"route", "route 8x16 (array move)", func() *graph.Graph { return e20Route(8, 16, n) }},
		{"scale", "scale 8x16 (elementwise)", func() *graph.Graph { return e20Scale(8, 16, n) }},
	}
	// Every round runs all three lane counts back to back and the speedup
	// is the median of per-round B/B=1 ratios: a neighbour's load on a
	// shared host hits both sides of a ratio, where comparing medians of
	// separately-timed blocks does not.
	const reps = 9
	batches := []int{1, 4, 16}
	for _, k := range kernels {
		rates := make([][]float64, len(batches))
		ratios := make([][]float64, len(batches))
		for r := 0; r < reps; r++ {
			roundRate := make([]float64, len(batches))
			for bi, b := range batches {
				g := k.mk()
				start := cpuTime()
				res, err := exec.Run(g, exec.Options{Batch: b})
				if err != nil {
					fatal(err)
				}
				cpu := cpuTime() - start
				laneCycles := res.Cycles
				if b > 1 {
					laneCycles = 0
					for _, lr := range res.Lanes {
						laneCycles += lr.Cycles
					}
				}
				roundRate[bi] = float64(laneCycles) / cpu.Seconds()
			}
			for bi := range batches {
				rates[bi] = append(rates[bi], roundRate[bi])
				ratios[bi] = append(ratios[bi], roundRate[bi]/roundRate[0])
			}
		}
		for bi, b := range batches {
			sort.Float64s(rates[bi])
			sort.Float64s(ratios[bi])
			rate, speedup := rates[bi][reps/2], ratios[bi][reps/2]
			fmt.Printf("  %-28s %5d  %17.0f  %8.2fx\n", k.title, b, rate, speedup)
			record(fmt.Sprintf("lane_cycles_per_cpu_s_%s_b%d", k.key, b), rate)
			if b == 16 {
				record(fmt.Sprintf("batch_speedup_%s_b16", k.key), speedup)
			}
		}
	}
}

// cpuTime returns the CPU time, user plus system, that this process has
// consumed (getrusage), as perfbench measures it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e21Graph builds w parallel d-cell identity chains with cell creation
// interleaved across chains (row by row), so contiguous-ID placement
// (bystage) cuts every chain arc while a connectivity-aware mapping keeps
// each chain on one PE. Same shape as e20Route but hostile creation order.
func e21Graph(w, d, n int) *graph.Graph {
	g := graph.New()
	prev := make([]*graph.Node, w)
	for k := 0; k < w; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i*w + k)
		}
		prev[k] = g.AddSource(fmt.Sprintf("in%d", k), value.Reals(vals))
	}
	for s := 0; s < d; s++ {
		for k := 0; k < w; k++ {
			c := g.Add(graph.OpID, "")
			g.Connect(prev[k], c, 0)
			prev[k] = c
		}
	}
	for k := 0; k < w; k++ {
		g.Connect(prev[k], g.AddSink(fmt.Sprintf("out%d", k)), 0)
	}
	return g
}

// e21 pins the tentpole claim: on a kernel whose creation order fights
// contiguous placement, the min-cost spatial mapping strictly lowers the
// analyzer's contention severity versus bystage (resource-bound → merely
// saturated instruction bandwidth, the §2 two-cells-per-PE floor) and beats
// the hotspot demo by well over 2x in simulated cycles — while every
// placement computes byte-identical output streams.
func e21(n int) {
	const w, d = 8, 2
	g := e21Graph(w, d, n)
	base := machine.Config{PEs: w, FUs: 1, AMs: 2 * w, NetDelay: 1}
	pl, err := place.Plan(g, place.Options{PEs: w})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  contention kernel %dx%d, %d elements/chain (PEs=%d FUs=1 AMs=%d net=1):\n",
		w, d, n, w, 2*w)
	fmt.Printf("  %-10s %8s  %s\n", "placement", "cycles", "severity")
	cases := []struct {
		key string
		cfg machine.Config
	}{
		{"bystage", base},
		{"hotspot", base},
		{"mincost", base},
	}
	cases[0].cfg.Assign = machine.ByStage
	cases[1].cfg.Assign = machine.HotSpot
	cases[2].cfg.Assign = machine.Placed
	cases[2].cfg.Placement = pl.PE
	cycles := map[string]int{}
	severity := map[string]int{}
	var outputs any
	for _, c := range cases {
		m := trace.NewMetrics()
		tr, finish := runTracer("e21-" + c.key)
		multi := trace.Multi{m}
		if tr != nil {
			multi = append(multi, tr)
		}
		cfg := c.cfg
		cfg.Tracer = multi
		res, err := machine.Run(g, cfg)
		if err != nil {
			fatal(err)
		}
		finish()
		a, err := analyze.Analyze(res.Graph(), m)
		if err != nil {
			fatal(err)
		}
		if outputs == nil {
			outputs = res.Outputs
		} else if !reflect.DeepEqual(outputs, res.Outputs) {
			fatal(fmt.Errorf("e21: outputs diverge under %s placement", c.key))
		}
		cycles[c.key] = res.Cycles
		severity[c.key] = a.Severity
		fmt.Printf("  %-10s %8d  %-14s\n", c.key, res.Cycles, analyze.SeverityWord(a.Severity))
		record("cycles_"+c.key, float64(res.Cycles))
		record("severity_"+c.key, float64(a.Severity))
	}
	vsHot := float64(cycles["hotspot"]) / float64(cycles["mincost"])
	vsStage := float64(cycles["bystage"]) / float64(cycles["mincost"])
	fmt.Printf("  mincost speedup: %.2fx vs hotspot, %.2fx vs bystage; severity %s -> %s\n",
		vsHot, vsStage, analyze.SeverityWord(severity["bystage"]), analyze.SeverityWord(severity["mincost"]))
	record("speedup_vs_hotspot", vsHot)
	record("speedup_vs_bystage", vsStage)
}
