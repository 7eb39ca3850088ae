// dfbench regenerates every experiment of the reproduction (E1–E14 in
// DESIGN.md): for each figure and quantitative claim of the paper it runs
// the corresponding workload and prints a table of paper-claim versus
// measured value. EXPERIMENTS.md is the archived output of this tool with
// commentary.
//
// Usage:
//
//	dfbench [-quick] [-only E7] [-json BENCH_run.json] [-compare BENCH_baseline.json]
//	        [-tolerance 0.20] [-parallel N] [-batch B] [-metrics] [-trace PREFIX]
//
// -json captures every headline number as machine-readable records for the
// perf trajectory; -compare checks this run's cycles/sec records against a
// committed baseline and exits nonzero on a regression beyond -tolerance
// (default 20%, skipping gracefully when the baseline file does not
// exist); -parallel N runs N independent benchmark instances across
// goroutines and reports aggregate simulation throughput instead of the
// experiment table; -batch B advances B independent copies of each input
// stream per simulator run through the batched engine (lane 0 results stay
// byte-identical, and the suite accounts aggregate lane cycles); -metrics
// prints a per-cell digest after each simulated run; -trace PREFIX writes
// one Chrome trace-event JSON file per run.
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
	"staticpipe/internal/obs"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/recurrence"
	"staticpipe/internal/serve"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/trace"
	"staticpipe/internal/trace/analyze"
	"staticpipe/internal/value"
)

var (
	quick    = flag.Bool("quick", false, "smaller problem sizes")
	only     = flag.String("only", "", "run a single experiment, e.g. E7")
	jsonOut  = flag.String("json", "", "write results as machine-readable JSON (e.g. BENCH_run.json)")
	compareF = flag.String("compare", "", "compare cycles/sec against a baseline JSON; exit nonzero on >20% regression")
	parallel = flag.Int("parallel", 0, "run N independent benchmark instances across goroutines and report throughput")
	samples  = flag.Int("samples", 1, "repeat the suite N times and record the median TOTAL cycles/sec (variance-aware bench guard)")
	workersF = flag.Int("workers", 0, "shards a -batch run's lanes across N goroutines (exec core only; results are byte-identical)")
	batchF   = flag.Int("batch", 0, "advance B independent input streams per simulator run through the batched engine (lane 0 is byte-identical)")
	tolF     = flag.Float64("tolerance", 0.20, "fractional cycles/sec drop -compare fails the build on (0.20 = 20%)")
	metricsF = flag.Bool("metrics", false, "print a per-cell metrics digest after each simulated run")
	tracePfx = flag.String("trace", "", "write Chrome trace-event JSON per run to PREFIX-NNN-label.json")
	httpAddr = flag.String("http", "", "serve live telemetry on this address (e.g. :9090)")
	cacheF   = flag.Bool("cache", false, "route suite compiles through a shared content-addressed artifact cache (repeat -samples passes skip recompilation)")
	version  = flag.Bool("version", false, "print version and build info, then exit")
)

// benchCache is non-nil when -cache is set: every run() compile goes
// through it, so identical (source, options) pairs — notably the repeat
// passes of -samples — reuse one immutable artifact instead of recompiling.
var benchCache *artifact.Cache

// registry is non-nil when -http is serving; -parallel registers each
// instance's exec and machine runs under separate labels.
var registry *telemetry.Registry

// benchRecord is one headline number in -json output.
type benchRecord struct {
	Exp    string  `json:"exp"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

var (
	records []benchRecord
	curExp  string
	// recording is cleared on the repeat passes of -samples so only the
	// first pass contributes per-experiment records; repeats contribute
	// only their TOTAL rate to the median.
	recording = true
	// per-experiment simulation accounting for the cycles/sec records:
	// simulated cycles and wall time spent inside simulator Run calls.
	simCycles int
	simWall   time.Duration
	// suite-wide totals, recorded under exp TOTAL; the bench guard compares
	// this aggregate because individual quick experiments finish in well
	// under a millisecond and their rates are dominated by timer noise.
	grandCycles int
	grandWall   time.Duration
	// benchFlight records one span tree per experiment pass (timings and
	// headline rates as attrs). When the bench guard fails, the dump is
	// written next to the run so the regression report points at data, not
	// just a percentage.
	benchFlight = obs.NewFlight(0, 0, 0)
)

// record captures one headline number under the current experiment.
func record(metric string, v float64) {
	if !recording {
		return
	}
	records = append(records, benchRecord{Exp: curExp, Metric: metric, Value: v})
}

// addSim accounts one simulator run toward the experiment's cycles/sec.
func addSim(cycles int, wall time.Duration) {
	simCycles += cycles
	simWall += wall
	grandCycles += cycles
	grandWall += wall
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

func main() {
	flag.Parse()
	if *version {
		fmt.Println("dfbench " + buildinfo.String())
		return
	}
	if *cacheF {
		benchCache = artifact.New(artifact.Config{})
	}
	if *httpAddr != "" {
		registry = telemetry.NewRegistry()
		srv, err := telemetry.Serve(*httpAddr, registry)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}
	experiments := []struct {
		id, title string
		run       func(size int)
		size      int
		quickSize int
	}{
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
	if *parallel > 0 {
		runParallel(*parallel)
	} else {
		runSuite := func() float64 {
			grandCycles, grandWall = 0, 0
			for _, e := range experiments {
				if *only != "" && !strings.EqualFold(*only, e.id) {
					continue
				}
				size := e.size
				if *quick {
					size = e.quickSize
				}
				curExp = e.id
				simCycles, simWall = 0, 0
				fmt.Printf("=== %s — %s ===\n", e.id, e.title)
				tree := obs.NewTree(obs.KindRun, e.id)
				start := time.Now()
				e.run(size)
				record("seconds", time.Since(start).Seconds())
				if simWall > 0 {
					record("cycles_per_sec", float64(simCycles)/simWall.Seconds())
				}
				root := tree.Root()
				root.Set("title", e.title)
				root.Set("size", size)
				root.Set("sim_cycles", simCycles)
				root.Set("sim_wall_ns", simWall.Nanoseconds())
				if simWall > 0 {
					root.Set("cycles_per_sec", float64(simCycles)/simWall.Seconds())
				}
				root.End()
				benchFlight.RecordTree(tree)
				fmt.Printf("(%.2fs)\n\n", time.Since(start).Seconds())
			}
			if grandWall == 0 {
				return 0
			}
			return float64(grandCycles) / grandWall.Seconds()
		}
		rates := []float64{runSuite()}
		// Repeat passes for -samples: per-experiment records are taken from
		// the first pass only; the guarded TOTAL rate is the median across
		// passes, which tames the timer noise a single quick pass carries.
		recording = false
		for s := 2; s <= *samples; s++ {
			stdout := os.Stdout
			null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				fatal(err)
			}
			os.Stdout = null
			r := runSuite()
			os.Stdout = stdout
			null.Close()
			rates = append(rates, r)
			fmt.Printf("sample %d/%d: %.0f cycles/sec\n", s, *samples, r)
		}
		recording = true
		if rates[0] > 0 {
			curExp = "TOTAL"
			rate := median(rates)
			record("cycles_per_sec", rate)
			if len(rates) > 1 {
				record("samples", float64(len(rates)))
				fmt.Printf("total: median of %d samples: %.0f cycles/sec\n", len(rates), rate)
			} else {
				fmt.Printf("total: %d simulated cycles in %.3fs of simulator time (%.0f cycles/sec)\n",
					grandCycles, grandWall.Seconds(), rate)
			}
		}
	}
	if benchCache != nil {
		st := benchCache.Stats()
		fmt.Printf("cache: %d hits, %d misses, %d coalesced, %.1fms compile saved\n",
			st.Hits, st.Misses, st.Coalesced, float64(st.CompileSaved.Microseconds())/1000)
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
	if *compareF != "" {
		if !compareBaseline(*compareF) {
			os.Exit(1)
		}
	}
}

// parallelWorkload is one independent benchmark instance for -parallel:
// compile the Fig 3 composed program and run it on both simulator kernels.
// Each instance gets its own tracer sinks (execRun, machRun), never shared
// across goroutines. Returns the simulated cycles contributed.
func parallelWorkload(n int, execRun, machRun *telemetry.Run) (int, error) {
	p := progs.Fig3(n)
	cycles := 0
	var bind core.Binding
	if execRun != nil {
		bind.Tracer = execRun.Tracer()
		bind.Progress = execRun.Progress()
	}
	art, err := core.CompileArtifact(p.Source, core.Options{})
	if err == nil {
		var res *core.RunResult
		res, err = art.Run(bind, p.Inputs)
		if err == nil {
			cycles += res.Exec.Cycles
		}
	}
	if execRun != nil {
		execRun.Finish(err)
	}
	if err != nil {
		return cycles, err
	}

	mp, err := art.Machine()
	if err == nil {
		cfg := machine.Config{PEs: 8, FUs: 4, AMs: 4, Inputs: p.Inputs}
		if machRun != nil {
			cfg.Tracer = machRun.Tracer()
			cfg.Progress = machRun.Progress()
		}
		var mres *machine.Result
		mres, err = mp.Run(cfg)
		if err == nil {
			cycles += mres.Cycles
		}
	}
	if machRun != nil {
		machRun.Finish(err)
	}
	return cycles, err
}

// runParallel fans N independent benchmark instances across goroutines and
// reports per-instance and aggregate simulation throughput. With -http each
// instance registers two labeled telemetry runs (parI/exec, parI/machine),
// so a live scrape shows every instance's progress separately.
func runParallel(n int) {
	size := 1024
	if *quick {
		size = 128
	}
	curExp = "PAR"
	fmt.Printf("=== parallel fan-out: %d independent instances (Fig 3, n=%d, exec+machine) ===\n", n, size)

	start := time.Now()
	c1, err := parallelWorkload(size, nil, nil)
	if err != nil {
		fatal(err)
	}
	single := time.Since(start)
	singleRate := float64(c1) / single.Seconds()
	fmt.Printf("  single instance: %d cycles in %.3fs (%.0f cycles/sec)\n", c1, single.Seconds(), singleRate)

	cycles := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start = time.Now()
	for i := range cycles {
		var execRun, machRun *telemetry.Run
		if registry != nil {
			execRun = registry.NewRun(fmt.Sprintf("par%d/exec", i), "exec")
			machRun = registry.NewRun(fmt.Sprintf("par%d/machine", i), "machine")
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cycles[i], errs[i] = parallelWorkload(size, execRun, machRun)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			fatal(fmt.Errorf("instance %d: %w", i, err))
		}
	}
	total := 0
	for i, c := range cycles {
		total += c
		fmt.Printf("  instance %2d: %d cycles (%.0f cycles/sec amortized)\n", i, c, float64(c)/wall.Seconds())
	}
	aggRate := float64(total) / wall.Seconds()
	fmt.Printf("  aggregate: %d cycles in %.3fs (%.0f cycles/sec, %.2fx single-instance rate)\n",
		total, wall.Seconds(), aggRate, aggRate/singleRate)
	record("cycles_per_sec_single", singleRate)
	record("cycles_per_sec_aggregate", aggRate)
	record("instances", float64(n))
}

// writeFlightDump writes the per-experiment flight recorder to a temp file
// and returns its path ("" if nothing was recorded or the write failed) —
// the bench guard prints it so a regression report carries the span trees
// of the slow run, not just the headline percentage.
func writeFlightDump() string {
	dump := benchFlight.Dump()
	if len(dump.Spans) == 0 {
		return ""
	}
	f, err := os.CreateTemp("", "dfbench-flight-*.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench guard: flight dump: %v\n", err)
		return ""
	}
	werr := dump.WriteTo(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		fmt.Fprintf(os.Stderr, "bench guard: flight dump: %v %v\n", werr, cerr)
		return ""
	}
	return f.Name()
}

// compareBaseline checks this run's cycles/sec records against a committed
// baseline JSON, failing on a regression beyond the tolerance. Returns true
// when the comparison passes (or is skipped because no baseline exists).
func compareBaseline(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("no baseline at %s; skipping cycles/sec comparison\n", path)
			return true
		}
		fatal(err)
	}
	var base struct {
		Tool    string        `json:"tool"`
		Quick   bool          `json:"quick"`
		Results []benchRecord `json:"results"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bad baseline %s: %v\n", path, err)
		return false
	}
	if base.Quick != *quick {
		fmt.Printf("baseline %s was recorded with quick=%v, this run uses quick=%v; skipping comparison\n",
			path, base.Quick, *quick)
		return true
	}
	baseline := make(map[string]float64)
	for _, r := range base.Results {
		if strings.HasPrefix(r.Metric, "cycles_per_sec") {
			baseline[r.Exp+"/"+r.Metric] = r.Value
		}
	}
	// Individual quick experiments finish in well under a millisecond, so
	// their rates swing wildly between identical runs; only the suite-wide
	// TOTAL aggregate is stable enough to gate on. Per-experiment records
	// are compared informationally.
	type regression struct {
		name   string
		before float64 // baseline cycles/sec
		after  float64 // this run's cycles/sec
	}
	var regressed []regression
	compared, failed := 0, 0
	for _, r := range records {
		if !strings.HasPrefix(r.Metric, "cycles_per_sec") {
			continue
		}
		want, ok := baseline[r.Exp+"/"+r.Metric]
		if !ok || want <= 0 {
			continue
		}
		ratio := r.Value / want
		gating := r.Exp == "TOTAL"
		if gating {
			compared++
		}
		if ratio < 1-*tolF {
			regressed = append(regressed, regression{r.Exp + "/" + r.Metric, want, r.Value})
			if gating {
				failed++
				fmt.Fprintf(os.Stderr, "REGRESSION %s/%s: %.0f cycles/sec vs baseline %.0f (%.0f%%)\n",
					r.Exp, r.Metric, r.Value, want, 100*ratio)
			} else {
				fmt.Printf("  note %s/%s: %.0f cycles/sec vs baseline %.0f (%.0f%%, informational)\n",
					r.Exp, r.Metric, r.Value, want, 100*ratio)
			}
		} else {
			fmt.Printf("  ok %s/%s: %.0f cycles/sec vs baseline %.0f (%.0f%%)\n",
				r.Exp, r.Metric, r.Value, want, 100*ratio)
		}
	}
	if compared == 0 {
		fmt.Printf("baseline %s has no comparable TOTAL cycles/sec record; skipping comparison\n", path)
		return true
	}
	if failed > 0 {
		// Name every experiment that slowed, not just the gating aggregate:
		// the per-experiment list is what points at the culprit.
		fmt.Fprintf(os.Stderr, "bench guard: aggregate cycles/sec regressed >%.0f%% vs %s\n",
			100**tolF, path)
		fmt.Fprintf(os.Stderr, "regressed experiments (before -> after cycles/sec, signed delta):\n")
		for _, r := range regressed {
			fmt.Fprintf(os.Stderr, "  %-28s %12.0f -> %-12.0f (%+.1f%%)\n",
				r.name, r.before, r.after, 100*(r.after/r.before-1))
		}
		if dumpPath := writeFlightDump(); dumpPath != "" {
			fmt.Fprintf(os.Stderr, "bench guard: per-experiment flight recorder dump at %s\n", dumpPath)
		}
		return false
	}
	fmt.Printf("bench guard: aggregate cycles/sec within %.0f%% of %s\n", 100**tolF, path)
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// median returns the middle value of the samples (mean of the two middles
// when even), without disturbing the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// run compiles and runs a program, returning the result. Run-time knobs
// (tracer, workers, lane width) travel in a Binding, never in the compile
// options: compile options feed the artifact-cache key, and a cached
// artifact must not carry one run's tracer into another run.
func run(p progs.Program, opts core.Options) (*core.Artifact, *core.RunResult) {
	tr, finish := runTracer(p.Name)
	bind := core.Binding{Tracer: tr, Workers: *workersF, Batch: *batchF}
	art, err := compileArtifact(p.Source, opts)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := art.Run(bind, p.Inputs)
	if err != nil {
		fatal(err)
	}
	addSim(execSimCycles(res.Exec), time.Since(start))
	finish()
	return art, res
}

// compileArtifact compiles src directly, or through the shared artifact
// cache when -cache is set.
func compileArtifact(src string, opts core.Options) (*core.Artifact, error) {
	if benchCache == nil {
		return core.CompileArtifact(src, opts)
	}
	art, _, err := benchCache.Get(artifact.KeyFor(src, opts, "", 0), func() (*core.Artifact, error) {
		return core.CompileArtifact(src, opts)
	})
	return art, err
}

// execSimCycles is the cycle count one firing-rule run contributes to the
// suite's cycles/sec: lane-0 cycles for a scalar run, summed per-lane
// cycles for a batched one (B lanes of simulation really happened).
func execSimCycles(res *exec.Result) int {
	if res.Batch <= 1 {
		return res.Cycles
	}
	total := 0
	for _, lr := range res.Lanes {
		total += lr.Cycles
	}
	return total
}

// machineSimCycles is execSimCycles for the packet-level machine.
func machineSimCycles(res *machine.Result) int {
	if res.Batch <= 1 {
		return res.Cycles
	}
	total := 0
	for _, lr := range res.Lanes {
		total += lr.Cycles
	}
	return total
}

// execRun runs a hand-built graph on the firing-rule simulator, counting
// it toward the experiment's cycles/sec.
func execRun(g *graph.Graph, opts exec.Options) *exec.Result {
	if opts.Workers == 0 {
		opts.Workers = *workersF
	}
	if opts.Batch == 0 {
		opts.Batch = *batchF
	}
	start := time.Now()
	res, err := exec.Run(g, opts)
	if err != nil {
		fatal(err)
	}
	addSim(execSimCycles(res), time.Since(start))
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
	if cfg.Batch == 0 {
		cfg.Batch = *batchF
	}
	start := time.Now()
	res, err := mp.Run(cfg)
	if err != nil {
		fatal(err)
	}
	addSim(machineSimCycles(res), time.Since(start))
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
		res := execRun(g, exec.Options{})
		fmt.Printf("  %8d  %14.3f  %10d\n", stages, res.II("out"), res.Arrivals["out"][0].Cycle)
		record(fmt.Sprintf("ii_stages_%d", stages), res.II("out"))
	}
}

func e3(m int) {
	p := progs.Fig4(m)
	_, bal := run(p, core.Options{})
	_, unbal := run(p, core.Options{NoBalance: true})
	fmt.Printf("  paper: selection + FIFO skew buffers give full pipelining\n")
	fmt.Printf("  %-12s  II = %.3f\n", "balanced", bal.II(p.Output))
	fmt.Printf("  %-12s  II = %.3f\n", "unbalanced", unbal.II(p.Output))
	record("ii_balanced", bal.II(p.Output))
	record("ii_unbalanced", unbal.II(p.Output))
}

func e4(n int) {
	p := progs.Fig5(n)
	_, bal := run(p, core.Options{})
	_, unbal := run(p, core.Options{NoBalance: true})
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
		res := execRun(g, exec.Options{})
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
		{"dedup", core.Options{Dedup: true}},
	} {
		art, res := run(p, s.opt)
		fmt.Printf("    %-8s cells=%3d (removed %d)  II=%.3f\n", s.name,
			art.Compiled.Graph.ComputeStats().Cells, art.Compiled.Deduped, res.II(p.Output))
		record("ii_"+s.name, res.II(p.Output))
		record("cells_"+s.name, float64(art.Compiled.Graph.ComputeStats().Cells))
	}
	fmt.Printf("  (dedup II was 2.188 at m=64 and 2.219 at m=256 before control arcs carried window skew; see EXPERIMENTS.md)\n")
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

// e18Graph builds w independent arithmetic lanes of d stages each: a wide,
// compute-bound elementwise graph (E20's "scale" workload).
func e18Graph(w, d, n int) *graph.Graph {
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
		cycles := 0
		for _, j := range done {
			<-j.Done()
			if res := j.Result(); res != nil {
				cycles += res.Cycles
			}
		}
		wall := time.Since(start)
		// Deliberately not addSim'd: E19's wall clock is dominated by
		// admission, queueing, and submitter back-off — folding it into the
		// gated TOTAL cycles/sec would make the engine-regression guard
		// noisy. The jobs/sec records below are the service-level metric.
		_ = cycles
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
			// Deliberately not addSim'd, like E19: the metric is service-level
			// admission throughput, not engine cycles/sec.
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
// above, with e18Graph's elementwise-arithmetic lanes as the compute-bound
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
// bookkeeping amortize over B lanes. The aggregate lane-cycles/sec ratio
// B=16 vs B=1 is the amortization factor; the issue's acceptance gate
// wants >= 5x on at least two array kernels.
func e20(n int) {
	fmt.Printf("  batched engine: aggregate lane-cycles/sec, %d elements/lane\n", n)
	fmt.Printf("  %-28s %5s  %16s  %9s\n", "kernel", "B", "lane-cycles/sec", "speedup")
	kernels := []struct {
		key, title string
		mk         func() *graph.Graph
	}{
		{"route", "route 8x16 (array move)", func() *graph.Graph { return e20Route(8, 16, n) }},
		{"scale", "scale 8x16 (elementwise)", func() *graph.Graph { return e18Graph(8, 16, n) }},
	}
	// Each rep is short enough that a scheduler hiccup on a shared machine
	// can halve (or double) a single rate, so every round runs all three
	// lane counts back to back and the speedup is the median of per-round
	// B/B=1 ratios — ambient contention hits both sides of a ratio, where
	// comparing medians of separately-timed blocks does not.
	const reps = 9
	batches := []int{1, 4, 16}
	for _, k := range kernels {
		rates := make([][]float64, len(batches))
		ratios := make([][]float64, len(batches))
		for r := 0; r < reps; r++ {
			roundRate := make([]float64, len(batches))
			for bi, b := range batches {
				g := k.mk()
				start := time.Now()
				res, err := exec.Run(g, exec.Options{Batch: b, Workers: *workersF})
				if err != nil {
					fatal(err)
				}
				wall := time.Since(start)
				cycles := execSimCycles(res)
				addSim(cycles, wall)
				roundRate[bi] = float64(cycles) / wall.Seconds()
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
			fmt.Printf("  %-28s %5d  %16.0f  %8.2fx\n", k.title, b, rate, speedup)
			record(fmt.Sprintf("cycles_per_sec_%s_b%d", k.key, b), rate)
			if b == 16 {
				record(fmt.Sprintf("batch_speedup_%s_b16", k.key), speedup)
			}
		}
	}
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
		start := time.Now()
		res, err := machine.Run(g, cfg)
		if err != nil {
			fatal(err)
		}
		addSim(machineSimCycles(res), time.Since(start))
		finish()
		a, err := analyze.Analyze(res.Graph, m)
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
