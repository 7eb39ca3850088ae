// dffigs regenerates the paper's machine-code figures as Graphviz files,
// built by the actual compilers rather than drawn by hand: Fig 2 (scalar
// pipeline), Fig 3 (flow dependency graph), Fig 4 (gated array selection),
// Fig 5 (pipelined conditional), Fig 6 (Example 1's forall), Fig 7 (Todd's
// for-iter scheme), and Fig 8 (the companion scheme).
//
// Usage:
//
//	dffigs [-dir docs/figures] [-m 6]
//
// Render with: dot -Tsvg docs/figures/fig8.dot -o fig8.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"staticpipe/internal/balance"
	"staticpipe/internal/buildinfo"
	"staticpipe/internal/core"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/pe"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/progs"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

func main() {
	dir := flag.String("dir", "docs/figures", "output directory")
	m := flag.Int("m", 6, "array extent used for the figure graphs (small keeps the drawings readable)")
	version := flag.Bool("version", false, "print version and build info, then exit")
	flag.Parse()
	if *version {
		fmt.Println("dffigs " + buildinfo.String())
		return
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}

	figs := []struct {
		name  string
		title string
		build func(m int) (*graph.Graph, error)
	}{
		{"fig2", "Fig 2: pipelined execution of (y+2)(y-3), y=a*b", fig2},
		{"fig4", "Fig 4: pipelined mapping for array selection", fig4},
		{"fig5", "Fig 5: fully pipelined if-then-else", fig5},
		{"fig6", "Fig 6: pipelined mapping of Example 1's forall", fig6},
		{"fig7", "Fig 7: Todd's translation of Example 2 (rate 1/3)", fig7},
		{"fig8", "Fig 8: companion-pipeline mapping of Example 2 (rate 1/2)", fig8},
	}
	for _, f := range figs {
		g, err := f.build(*m)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", f.name, err))
		}
		path := filepath.Join(*dir, f.name+".dot")
		if err := os.WriteFile(path, []byte(g.DOT(f.title)), 0o644); err != nil {
			fatal(err)
		}
		stats := g.ComputeStats()
		fmt.Printf("%-10s %3d cells  %3d arcs   %s\n", f.name+".dot", stats.Cells, stats.Arcs, f.title)
	}

	// Fig 3 is the block-level flow dependency graph.
	p := progs.Fig3(*m)
	art, err := core.CompileArtifact(p.Source, core.Options{})
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(*dir, "fig3.dot")
	if err := os.WriteFile(path, []byte(pipestruct.FlowDOT(art.Checked)), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s block-level flow dependency graph\n", "fig3.dot")
}

// exprGraph compiles a primitive expression over [lo, hi] with the given
// 1-D arrays (each spanning [alo, ahi]) and balances it.
func exprGraph(src string, lo, hi int64, arrays map[string][2]int64) (*graph.Graph, error) {
	e, err := val.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	g := graph.New()
	b := pe.NewBuilder(g, "i", lo, hi, nil, pe.Options{})
	for _, name := range sortedNames(arrays) {
		rng := arrays[name]
		n := int(rng[1] - rng[0] + 1)
		b.BindArray(name, g.AddSource(name, value.Reals(make([]float64, n))), rng[0], rng[1])
	}
	out, err := b.CompileStream(e)
	if err != nil {
		return nil, err
	}
	g.Connect(out, g.AddSink("out"), 0)
	for _, n := range g.Nodes() {
		if n.Op == graph.OpSource && len(n.Out) == 0 {
			g.Connect(n, g.AddSink("discard:"+n.Label), 0)
		}
	}
	if _, err := balance.Balance(g); err != nil {
		return nil, err
	}
	return g, nil
}

// sortedNames returns the array names in sorted order, so that source
// cells get the same IDs, and the figures the same node order, every run.
func sortedNames(arrays map[string][2]int64) []string {
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fig2(m int) (*graph.Graph, error) {
	return exprGraph("let y : real := a[i]*b[i] in (y + 2.)*(y - 3.) endlet",
		1, int64(m), map[string][2]int64{"a": {1, int64(m)}, "b": {1, int64(m)}})
}

func fig4(m int) (*graph.Graph, error) {
	return exprGraph("0.25 * (C[i-1] + 2.*C[i] + C[i+1])",
		1, int64(m), map[string][2]int64{"C": {0, int64(m) + 1}})
}

func fig5(m int) (*graph.Graph, error) {
	return exprGraph("if C[i] > 0. then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif",
		1, int64(m), map[string][2]int64{
			"A": {1, int64(m)}, "B": {1, int64(m)}, "C": {1, int64(m)},
		})
}

// blockGraph compiles a full forall or for-iter block with balanced output.
func blockGraph(src string, m int, arrays map[string][2]int64, opts foriter.Options, isForall bool, faOpts forall.Options) (*graph.Graph, error) {
	e, err := val.ParseExpr(src)
	if err != nil {
		return nil, err
	}
	g := graph.New()
	avail := map[string]forall.Input{}
	for _, name := range sortedNames(arrays) {
		rng := arrays[name]
		n := int(rng[1] - rng[0] + 1)
		avail[name] = forall.Input{
			Node: g.AddSource(name, value.Reals(make([]float64, n))),
			Lo:   rng[0], Hi: rng[1],
		}
	}
	params := map[string]int64{"m": int64(m)}
	var out *graph.Node
	if isForall {
		o, err := forall.Compile(g, e.(*val.Forall), params, avail, faOpts)
		if err != nil {
			return nil, err
		}
		out = o.Node
	} else {
		o, err := foriter.Compile(g, e.(*val.ForIter), params, avail, opts)
		if err != nil {
			return nil, err
		}
		out = o.Node
	}
	g.Connect(out, g.AddSink("out"), 0)
	if _, err := balance.Balance(g); err != nil {
		return nil, err
	}
	return g, nil
}

const example1Body = `
forall i in [0, m+1]
  P : real := if (i = 0) | (i = m+1) then C[i]
              else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
construct B[i]*(P*P)
endall`

const example2Body = `
for i : integer := 1; T : array[real] := [0: 0.]
do
  let P : real := A[i]*T[i-1] + B[i]
  in if i < m then iter T := T[i: P]; i := i + 1 enditer
     else T[i: P] endif
  endlet
endfor`

func fig6(m int) (*graph.Graph, error) {
	return blockGraph(example1Body, m,
		map[string][2]int64{"B": {0, int64(m) + 1}, "C": {0, int64(m) + 1}},
		foriter.Options{}, true, forall.Options{})
}

func fig7(m int) (*graph.Graph, error) {
	return blockGraph(example2Body, m,
		map[string][2]int64{"A": {1, int64(m)}, "B": {1, int64(m)}},
		foriter.Options{Scheme: foriter.Todd}, false, forall.Options{})
}

func fig8(m int) (*graph.Graph, error) {
	return blockGraph(example2Body, m,
		map[string][2]int64{"A": {1, int64(m)}, "B": {1, int64(m)}},
		foriter.Options{Scheme: foriter.Companion}, false, forall.Options{})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
