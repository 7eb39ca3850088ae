// dfc is the pipe-structured Val compiler: it translates a .val program
// into a balanced machine-level dataflow instruction graph and prints a
// compile report, the cell listing, or Graphviz renderings of the
// instruction graph and the block-level flow dependency graph.
//
// Usage:
//
//	dfc [flags] program.val
//	dfc [flags] < program.val
//
// Flags:
//
//	-report        print the compile report (default)
//	-list          print the instruction-cell listing
//	-dot           print the instruction graph in Graphviz syntax
//	-flow          print the flow dependency graph in Graphviz syntax
//	-todd          use Todd's for-iter scheme instead of the companion scheme
//	-parallel      use the parallel forall scheme instead of the pipeline scheme
//	-literal-ctl   generate control streams from literal instruction cells
//	-no-balance    skip balancing
//	-naive-balance use longest-path leveling instead of optimal balancing
//	-passes        explicit compilation pass list (overrides the strategy flags)
//	-dump-after    print the cell listing after the named pass ("all" = every pass)
//	-verify-each   run the IR verifier after every compilation pass
//	-stats         print per-pass compilation statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"staticpipe/internal/buildinfo"
	"staticpipe/internal/core"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/passes"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		report    = fs.Bool("report", false, "print the compile report (default)")
		list      = fs.Bool("list", false, "print the instruction-cell listing")
		dot       = fs.Bool("dot", false, "print the instruction graph as Graphviz dot")
		flow      = fs.Bool("flow", false, "print the flow dependency graph as Graphviz dot")
		todd      = fs.Bool("todd", false, "use Todd's for-iter scheme")
		parallel  = fs.Bool("parallel", false, "use the parallel forall scheme")
		litCtl    = fs.Bool("literal-ctl", false, "literal control-stream subgraphs")
		noBal     = fs.Bool("no-balance", false, "skip balancing")
		naiveBal  = fs.Bool("naive-balance", false, "longest-path leveling")
		dedup     = fs.Bool("dedup", false, "common-cell elimination before balancing")
		passList  = fs.String("passes", "", "comma-separated compilation pass list, e.g. \"dedup,balance\" (available: "+strings.Join(passes.Names(), ", ")+"); overrides the strategy flags")
		dumpAfter = fs.String("dump-after", "", "print the cell listing after the named pass; \"all\" dumps after every pass")
		verify    = fs.Bool("verify-each", false, "run the IR verifier after every compilation pass")
		stats     = fs.Bool("stats", false, "print per-pass compilation statistics")
		emit      = fs.String("emit", "", "write the loadable instruction graph to this file (run it with dfsim -graph)")
		fill      = fs.String("fill", "ramp", "input data baked into an emitted graph: ramp | sin | const | alt")
		version   = fs.Bool("version", false, "print version and build info, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "dfc "+buildinfo.String())
		return 0
	}

	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	opts := core.Options{
		LiteralControl: *litCtl,
		NoBalance:      *noBal,
		NaiveBalance:   *naiveBal,
		Dedup:          *dedup,
		Passes:         *passList,
		VerifyEach:     *verify,
	}
	if *todd {
		opts.ForIterScheme = foriter.Todd
	}
	if *parallel {
		opts.ForallScheme = forall.Parallel
	}
	printed := false
	dumped := false
	if *dumpAfter != "" {
		opts.Snapshot = func(pass string, g *graph.Graph) {
			if *dumpAfter != "all" && *dumpAfter != pass {
				return
			}
			fmt.Fprintf(stdout, "== after %s ==\n", pass)
			fmt.Fprint(stdout, g.String())
			dumped = true
		}
	}
	art, err := core.CompileArtifact(src, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printed = dumped
	if *stats {
		fmt.Fprintf(stdout, "passes (wall / cells / arcs):\n")
		for _, s := range art.PassStats() {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		printed = true
	}
	if *emit != "" {
		inputs := map[string][]value.Value{}
		for _, in := range art.Checked.Inputs {
			inputs[in.Name] = progs.Synth(*fill, in.Len())
		}
		// Baking inputs into the graph is safe here: this artifact was
		// compiled for this process alone, and the emitted file is a graph
		// with its streams bound (dfsim -graph runs it as is).
		if err := art.Compiled.SetInputs(inputs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		data, err := art.Compiled.Graph.Marshal()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(*emit, data, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d cells, inputs filled with %q data)\n",
			*emit, art.Compiled.Graph.NumNodes(), *fill)
		printed = true
	}
	if *flow {
		fmt.Fprint(stdout, pipestruct.FlowDOT(art.Checked))
		printed = true
	}
	if *dot {
		fmt.Fprint(stdout, art.Compiled.Graph.DOT("program"))
		printed = true
	}
	if *list {
		fmt.Fprint(stdout, art.Compiled.Graph.String())
		printed = true
	}
	if *report || !printed {
		fmt.Fprint(stdout, art.Report())
	}
	return 0
}

func readSource(args []string, stdin io.Reader) (string, error) {
	if len(args) > 1 {
		return "", fmt.Errorf("dfc: expected at most one source file, got %d", len(args))
	}
	if len(args) == 1 {
		data, err := os.ReadFile(args[0])
		return string(data), err
	}
	data, err := io.ReadAll(stdin)
	return string(data), err
}
