// dftrace is the pipeline observability tool: it compiles a pipe-structured
// Val program, runs it under the tracer on either executable model — the
// firing-rule simulator (default) or the cycle-accurate packet-level
// machine (-machine) — and reports every cell's achieved inter-firing
// interval against the analytic maximum-cycle-ratio prediction, together
// with a bottleneck verdict (unbalanced critical cycle vs saturated machine
// resource). With -trace it also writes a Chrome trace-event JSON file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	dftrace [flags] program.val
//
// Flags:
//
//	-fill kind     input data: ramp | sin | const | alt (default ramp)
//	-machine       run on the packet-level machine
//	-pes/-fus/-ams machine shape (defaults 4/2/2)
//	-butterfly     use the butterfly routing network
//	-hotspot       pile every cell onto PE 0 (contention demo)
//	-place s       re-place cells (stage | random | hotspot | mincost |
//	               profile) and report a before/after contention verdict:
//	               the baseline assignment (-hotspot or the default) runs
//	               first, then the re-placed machine, and the final lines
//	               grade the delta ("contention: improved | unchanged |
//	               worse"). profile plans from the baseline run's metrics.
//	-todd          use Todd's for-iter scheme
//	-passes list   compilation pass list ("" = balance; "none" skips
//	               balancing, to see the unbalanced critical cycle)
//	-trace FILE    write Chrome trace-event JSON to FILE
//	-span FILE     write the run's span tree (job → placement.plan → run)
//	               as JSON
//	-top n         rows in the per-cell rate table (default 12; 0 = all)
//	-events n      keep and print the last n raw events (default 0)
//	-summary       also print the per-pass compile table and the raw
//	               metrics digest
//	-http ADDR     serve live telemetry (/metrics, /runs, /healthz, pprof)
//	-version       print version and build info, then exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"staticpipe/internal/buildinfo"
	"staticpipe/internal/core"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/obs"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/trace"
	"staticpipe/internal/trace/analyze"
	"staticpipe/internal/value"
)

func main() {
	var (
		fill      = flag.String("fill", "ramp", "input data: ramp | sin | const | alt")
		useMach   = flag.Bool("machine", false, "run on the packet-level machine")
		pes       = flag.Int("pes", 4, "machine processing elements")
		fus       = flag.Int("fus", 2, "machine function units")
		ams       = flag.Int("ams", 2, "machine array memories")
		butterfly = flag.Bool("butterfly", false, "butterfly routing network")
		hotspot   = flag.Bool("hotspot", false, "place every compute cell on PE 0")
		placeMode = flag.String("place", "", "re-place cells (stage | random | hotspot | mincost | profile) and report the before/after contention delta")
		todd      = flag.Bool("todd", false, "Todd's for-iter scheme")
		passList  = flag.String("passes", "", "compilation pass list (\"\" = balance, \"none\" = no pass; see dfc -h)")
		traceOut  = flag.String("trace", "", "write Chrome trace-event JSON to this file")
		spanOut   = flag.String("span", "", "write the run's span tree as JSON to this file")
		top       = flag.Int("top", 12, "rows in the per-cell rate table (0 = all)")
		events    = flag.Int("events", 0, "keep and print the last n raw events")
		summary   = flag.Bool("summary", false, "print the per-pass compile table and the raw metrics digest too")
		httpAddr  = flag.String("http", "", "serve live telemetry on this address (e.g. :9090)")
		version   = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dftrace " + buildinfo.String())
		return
	}

	src, err := readSource(flag.Args())
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Passes: *passList}
	if *todd {
		opts.ForIterScheme = foriter.Todd
	}

	var bind core.Binding
	var run *telemetry.Run
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
		model := "exec"
		if *useMach {
			model = "machine"
		}
		run = reg.NewRun(label, model)
		bind.Progress = run.Progress()
	}

	metrics := trace.NewMetrics()
	tracers := trace.Multi{metrics}
	if run != nil {
		tracers = append(tracers, run.Tracer())
	}
	var ring *trace.Ring
	if *events > 0 {
		ring = trace.NewRing(*events)
		tracers = append(tracers, ring)
	}
	var chrome *trace.Chrome
	var traceFile *os.File
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		chrome = trace.NewChrome(traceFile)
		tracers = append(tracers, chrome)
	}
	bind.Tracer = tracers

	var spanTree *obs.Tree
	var runSpan *obs.Span
	if *spanOut != "" {
		label := "stdin"
		if flag.NArg() > 0 {
			label = flag.Arg(0)
		}
		spanTree = obs.NewTree(obs.KindJob, label)
	}

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

	var ran *graph.Graph
	var baseline *analyze.Analysis
	if *useMach {
		mp, err := art.Machine()
		if err != nil {
			fatal(err)
		}
		cfg := machine.Config{PEs: *pes, FUs: *fus, AMs: *ams, Tracer: tracers, Progress: bind.Progress, Inputs: inputs}
		if *butterfly {
			cfg.Network = machine.Butterfly
		}
		if *hotspot {
			cfg.Assign = machine.HotSpot
		}
		if *placeMode != "" {
			// Before/after verdict mode: run the baseline assignment with a
			// private metrics sink (the registered tracers see only the
			// re-placed run), then swap in the requested placement.
			baseMetrics := trace.NewMetrics()
			base := cfg
			base.Tracer = trace.Multi{baseMetrics}
			base.Progress = nil
			baseRes, err := mp.Run(base)
			if err != nil {
				fatal(fmt.Errorf("placement baseline run: %w", err))
			}
			baseline, err = analyze.Analyze(baseRes.Graph, baseMetrics)
			if err != nil {
				fatal(err)
			}
			plSpan := spanTree.Root().Child(obs.KindPlacement, *placeMode)
			// profile plans from the baseline run's metrics: the run the
			// verdict compares against is exactly the profile the new
			// mapping was derived from.
			profile := func() (*trace.Metrics, error) { return baseMetrics, nil }
			if err := place.Apply(*placeMode, art.Compiled.Graph, &cfg, profile); err != nil {
				fatal(err)
			}
			plSpan.Set("pes", int64(cfg.PEs))
			plSpan.End()
		}
		if spanTree != nil {
			runSpan = spanTree.Root().Child(obs.KindRun, "machine")
			cfg.Ctx = obs.WithSpan(context.Background(), runSpan)
		}
		res, err := mp.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(machine.Describe(res))
		ran = res.Graph
	} else {
		if spanTree != nil {
			runSpan = spanTree.Root().Child(obs.KindRun, "exec")
			bind.Ctx = obs.WithSpan(context.Background(), runSpan)
		}
		res, err := art.Run(bind, inputs)
		if err != nil {
			fatal(err)
		}
		for _, sink := range res.Exec.Graph.Sinks() {
			if len(sink.Label) >= 8 && sink.Label[:8] == "discard:" {
				continue
			}
			fmt.Printf("sink %q: %d values, II=%.3f over %d cycles\n",
				sink.Label, len(res.Exec.Outputs[sink.Label]), res.Exec.II(sink.Label), res.Exec.Cycles)
		}
		ran = res.Exec.Graph
	}

	if run != nil {
		run.Finish(nil)
	}
	if spanTree != nil {
		runSpan.End()
		spanTree.Root().End()
		if err := writeSpanFile(*spanOut, spanTree); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote span tree %s\n", *spanOut)
	}
	analysis, err := analyze.Analyze(ran, metrics)
	if err != nil {
		fatal(err)
	}
	fmt.Print(analysis.Render(*top))
	if baseline != nil {
		fmt.Print(analyze.RenderDelta(baseline, analysis))
	}
	if *summary {
		if stats := art.PassStats(); len(stats) > 0 {
			fmt.Printf("compile phases (wall / cells / arcs):\n")
			for _, st := range stats {
				fmt.Printf("  %s\n", st)
			}
		}
		fmt.Print(metrics.Summary(*top))
	}
	if ring != nil {
		fmt.Printf("last %d of %d events:\n", len(ring.Events()), ring.Total())
		for _, e := range ring.Events() {
			fmt.Println("  " + ring.Meta().Format(e))
		}
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// writeSpanFile dumps the span tree snapshot as indented JSON.
func writeSpanFile(path string, t *obs.Tree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSource(args []string) (string, error) {
	if len(args) > 1 {
		return "", fmt.Errorf("dftrace: expected at most one source file, got %d", len(args))
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
