// dfsim compiles a pipe-structured Val program and executes it, either on
// the firing-rule simulator (default) or on the cycle-accurate packet-level
// machine (-machine). Input arrays are filled synthetically (-fill) since
// the simulator is a study tool, not a numerical library.
//
// Usage:
//
//	dfsim [flags] program.val
//
// Flags:
//
//	-fill kind     input data: ramp | sin | const | alt (default ramp)
//	-batch n       advance n independent input streams ("lanes") in one run;
//	               stdout stays byte-identical to a scalar run (lane 0), the
//	               per-lane summary goes to stderr
//	-workers n     shards a -batch run's lanes across n goroutines (exec
//	               core only; output is byte-identical)
//	-print n       print at most n elements per output (default 8; 0 = all)
//	-machine       run on the packet-level machine
//	-pes n         machine PEs (default 4)
//	-fus n         machine function units (default 2)
//	-ams n         machine array memories (default 2)
//	-butterfly     use the butterfly routing network
//	-place s       machine cell → PE placement: stage | random | hotspot |
//	               mincost | profile (profile = silent pre-run, then re-plan
//	               from the observed traffic); outputs are placement-invariant
//	-todd          use Todd's for-iter scheme
//	-passes list   compilation pass list ("" = balance, "none" = no pass)
//	-verify        cross-check against the reference interpreter
//	-trace FILE    write a Chrome trace-event JSON file (Perfetto-loadable)
//	-metrics       print per-cell/per-unit metrics after the run
//	-http ADDR     serve live telemetry (/metrics, /runs, /healthz, pprof)
//	-version       print version and build info, then exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"staticpipe/internal/buildinfo"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

func main() {
	var (
		fill      = flag.String("fill", "ramp", "input data: ramp | sin | const | alt")
		batch     = flag.Int("batch", 0, "advance N independent input streams in one run (lane 0 output is byte-identical)")
		printN    = flag.Int("print", 8, "max elements printed per output (0 = all)")
		useMach   = flag.Bool("machine", false, "run on the packet-level machine")
		pes       = flag.Int("pes", 4, "machine processing elements")
		fus       = flag.Int("fus", 2, "machine function units")
		ams       = flag.Int("ams", 2, "machine array memories")
		workers   = flag.Int("workers", 0, "shards a -batch run's lanes across N goroutines (exec core only; output is byte-identical)")
		butterfly = flag.Bool("butterfly", false, "butterfly routing network")
		placeMode = flag.String("place", "", "machine placement: stage | random | hotspot | mincost | profile")
		todd      = flag.Bool("todd", false, "Todd's for-iter scheme")
		passList  = flag.String("passes", "", "compilation pass list (\"\" = balance, \"none\" = no pass; see dfc -h)")
		verify    = flag.Bool("verify", false, "cross-check against the interpreter")
		graphFile = flag.Bool("graph", false, "the argument is a serialized instruction graph (dfc -emit), not Val source")
		waterfall = flag.Bool("waterfall", false, "print a cell-by-cycle firing chart (use small inputs)")
		traceOut  = flag.String("trace", "", "write Chrome trace-event JSON to this file")
		metrics   = flag.Bool("metrics", false, "print per-cell/per-unit metrics after the run")
		httpAddr  = flag.String("http", "", "serve live telemetry on this address (e.g. :9090)")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dfsim " + buildinfo.String())
		return
	}
	if *workers > 1 && (*useMach || *batch <= 1) {
		fmt.Fprintln(os.Stderr, "dfsim: -workers shards a -batch run's lanes on the exec core: it needs -batch > 1 and no -machine")
		os.Exit(2)
	}

	model := "exec"
	if *useMach {
		model = "machine"
	}
	var run *telemetry.Run
	var prog *trace.Progress
	if *httpAddr != "" {
		reg := telemetry.NewRegistry()
		srv, err := telemetry.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
		label := "stdin"
		if flag.NArg() > 0 {
			label = flag.Arg(0)
		}
		run = reg.NewRun(label, model)
		prog = run.Progress()
	}

	var tracer trace.Tracer
	var agg *trace.Metrics
	var chrome *trace.Chrome
	var traceFile *os.File
	if *metrics || *traceOut != "" || run != nil {
		var multi trace.Multi
		if *metrics {
			agg = trace.NewMetrics()
			multi = append(multi, agg)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			chrome = trace.NewChrome(f)
			multi = append(multi, chrome)
		}
		if run != nil {
			multi = append(multi, run.Tracer())
		}
		tracer = multi
	}
	finish := func() {
		if run != nil {
			run.Finish(nil)
		}
		if agg != nil {
			fmt.Print(agg.Summary(12))
		}
		if chrome != nil {
			if err := chrome.Close(); err != nil {
				fatal(err)
			}
			if err := traceFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}

	// runMachine runs the packet-level machine over mp with inputs bound
	// for this run only (nil keeps the streams bound on the graph).
	runMachine := func(mp *machine.Prepared, inputs map[string][]value.Value) {
		cfg := machine.Config{PEs: *pes, FUs: *fus, AMs: *ams, Tracer: tracer, Progress: prog,
			Batch: *batch, LaneInputs: laneFill(inputs, *batch), Inputs: inputs}
		if *butterfly {
			cfg.Network = machine.Butterfly
		}
		// profile plans from a silent pre-run under the baseline
		// assignment; placement never changes what a run computes.
		profile := func() (*trace.Metrics, error) {
			m := trace.NewMetrics()
			pre := cfg
			pre.Tracer, pre.Progress, pre.Batch, pre.LaneInputs = m, nil, 0, nil
			if _, err := mp.Run(pre); err != nil {
				return nil, fmt.Errorf("placement profile pre-run: %w", err)
			}
			return m, nil
		}
		if err := place.Apply(*placeMode, mp.Table(), &cfg, profile); err != nil {
			fatal(err)
		}
		res, err := mp.Run(cfg)
		if err != nil {
			fatalPartial(err, res, machine.Describe)
		}
		fmt.Print(machine.Describe(res))
		printOutputs(res.Outputs, *printN)
		machineLaneSummary(res)
		finish()
	}

	if *graphFile {
		if len(flag.Args()) != 1 {
			fatal(fmt.Errorf("dfsim -graph needs exactly one graph file"))
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		g, err := graph.Unmarshal(data)
		if err != nil {
			fatal(err)
		}
		if *useMach {
			mp, err := machine.Prepare(g)
			if err != nil {
				fatal(err)
			}
			runMachine(mp, nil)
			return
		}
		res, err := exec.Run(g, exec.Options{Workers: *workers, Tracer: tracer, Progress: prog, Batch: *batch})
		if err != nil {
			fatalPartial(err, res, exec.Describe)
		}
		fmt.Print(exec.Describe(res))
		printOutputs(res.Outputs, *printN)
		execLaneSummary(res)
		finish()
		return
	}

	src, err := readSource(flag.Args())
	if err != nil {
		fatal(err)
	}
	// Compile options carry only what shapes the artifact; the run-time
	// attachments (tracer, progress, workers, lane width) bind per run
	// below, so the traced main run and the tracer-free verify run share
	// one artifact.
	opts := core.Options{Passes: *passList}
	if *todd {
		opts.ForIterScheme = foriter.Todd
	}
	bind := core.Binding{Tracer: tracer, Progress: prog, Workers: *workers, Batch: *batch}

	art, err := core.CompileArtifact(src, opts)
	if err != nil {
		fatal(err)
	}
	if run != nil {
		run.AddWarnings(art.Compiled.Warnings...)
	}

	inputs := map[string][]value.Value{}
	for _, in := range art.Checked.Inputs {
		inputs[in.Name] = progs.Synth(*fill, in.Len())
	}

	if *verify {
		// Validate runs the graph too, with no tracer bound, so the traced
		// run below stays the only one in the event stream.
		if err := art.Validate(inputs, 1e-9); err != nil {
			fatal(fmt.Errorf("verification failed: %w", err))
		}
		fmt.Println("verified: compiled graph matches the reference interpreter")
	}

	if *useMach {
		mp, err := art.Machine()
		if err != nil {
			fatal(err)
		}
		runMachine(mp, inputs)
		return
	}

	if *waterfall {
		chart, err := exec.Waterfall(art.Compiled.Graph, exec.Options{Inputs: inputs}, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Print(chart)
		return
	}

	if *batch > 1 {
		res, err := art.RunBatch(bind, inputs, laneFill(inputs, *batch))
		if err != nil {
			fatal(err)
		}
		// Lane 0 consumed the baseline inputs, so stdout is byte-identical
		// to a scalar run; the per-lane summary goes to stderr.
		fmt.Print(exec.Describe(res.Exec))
		byName := map[string][]value.Value{}
		for name, arr := range res.Lanes[0].Outputs {
			byName[name] = arr.Elems
		}
		printOutputs(byName, *printN)
		execLaneSummary(res.Exec)
		finish()
		return
	}

	res, err := art.Run(bind, inputs)
	if err != nil {
		fatal(err)
	}
	fmt.Print(exec.Describe(res.Exec))
	byName := map[string][]value.Value{}
	for name, arr := range res.Outputs {
		byName[name] = arr.Elems
	}
	printOutputs(byName, *printN)
	finish()
}

// laneFill builds per-lane input streams for -batch: lane l consumes the
// base synthetic streams rotated by l, so lanes carry distinct data while
// every stream keeps its declared length. Lane 0 (nil entry) keeps the
// baseline streams.
func laneFill(inputs map[string][]value.Value, b int) []map[string][]value.Value {
	if b <= 1 {
		return nil
	}
	lanes := make([]map[string][]value.Value, b)
	for l := 1; l < b; l++ {
		m := make(map[string][]value.Value, len(inputs))
		for name, vs := range inputs {
			m[name] = rotVals(vs, l)
		}
		lanes[l] = m
	}
	return lanes
}

func rotVals(vs []value.Value, k int) []value.Value {
	if len(vs) == 0 {
		return vs
	}
	k %= len(vs)
	return append(append([]value.Value(nil), vs[k:]...), vs[:k]...)
}

// execLaneSummary prints one line per lane to stderr — stdout must stay
// byte-identical to a scalar run so output diffing keeps working.
func execLaneSummary(res *exec.Result) {
	for l, lr := range res.Lanes {
		n := 0
		for _, vs := range lr.Outputs {
			n += len(vs)
		}
		fmt.Fprintf(os.Stderr, "batch: lane %d: cycles=%d clean=%v outputs=%d\n", l, lr.Cycles, lr.Clean, n)
	}
}

func machineLaneSummary(res *machine.Result) {
	for l, lr := range res.Lanes {
		n := 0
		for _, vs := range lr.Outputs {
			n += len(vs)
		}
		fmt.Fprintf(os.Stderr, "batch: lane %d: cycles=%d clean=%v packets=%d outputs=%d\n",
			l, lr.Cycles, lr.Clean, lr.TotalPackets, n)
	}
}

func printOutputs(outputs map[string][]value.Value, limit int) {
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		if len(name) >= 8 && name[:8] == "discard:" {
			continue // internal drains of unconsumed streams
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vals := outputs[name]
		n := len(vals)
		shown := n
		if limit > 0 && shown > limit {
			shown = limit
		}
		fmt.Printf("%s (%d elements):", name, n)
		for i := 0; i < shown; i++ {
			fmt.Printf(" %v", vals[i])
		}
		if shown < n {
			fmt.Printf(" ...")
		}
		fmt.Println()
	}
}

func readSource(args []string) (string, error) {
	if len(args) > 1 {
		return "", fmt.Errorf("dfsim: expected at most one source file, got %d", len(args))
	}
	if len(args) == 1 {
		data, err := os.ReadFile(args[0])
		return string(data), err
	}
	data, err := io.ReadAll(os.Stdin)
	return string(data), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// fatalPartial reports a failed run together with the partial result's
// summary (cycle count, output counts, stall diagnostics) when the
// simulator returned one — a run that exhausted MaxCycles is diagnosed by
// exactly that information.
func fatalPartial[R any](err error, res *R, describe func(*R) string) {
	fmt.Fprintln(os.Stderr, err)
	if res != nil {
		fmt.Fprint(os.Stderr, describe(res))
	}
	os.Exit(1)
}
