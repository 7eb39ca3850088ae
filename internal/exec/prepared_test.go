package exec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// TestPreparedInputsOverride pins the input-immutability contract:
// Options.Inputs rebinds a source cell's stream for one run without
// touching the graph, so the same Prepared serves different inputs from
// different runs — the binding half of the artifact-cache contract.
func TestPreparedInputsOverride(t *testing.T) {
	g, want := fig2(16)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}

	base, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Output("out") {
		if v.AsReal() != want[i] {
			t.Fatalf("baseline out[%d] = %v, want %v", i, v, want[i])
		}
	}

	// Override stream a with all-ones; b keeps its compiled stream.
	ones := make([]float64, 16)
	bs := make([]float64, 16)
	for i := range ones {
		ones[i] = 1
		bs[i] = float64(2*i) - 3.25
	}
	over, err := p.Run(Options{Inputs: map[string][]value.Value{"a": value.Reals(ones)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range over.Output("out") {
		y := 1 * bs[i]
		if exp := (y + 2) * (y - 3); v.AsReal() != exp {
			t.Fatalf("override out[%d] = %v, want %v", i, v, exp)
		}
	}

	// The graph was not written: a plain run still sees the compiled
	// streams, byte for byte.
	again, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outputs, base.Outputs) || again.Cycles != base.Cycles {
		t.Fatal("override leaked into the shared graph: baseline run changed")
	}
}

// TestPreparedUnknownInputLabel pins the validation error: an override
// naming no source cell is a caller bug, refused before the run starts.
func TestPreparedUnknownInputLabel(t *testing.T) {
	g, _ := fig2(4)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(Options{Inputs: map[string][]value.Value{"nope": value.Reals([]float64{1})}})
	if err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
		t.Fatalf("err = %v, want unknown-label refusal", err)
	}

	// Two source cells sharing a label must not hide an unknown key.
	g = graph.New()
	add := g.Add(graph.OpAdd, "")
	g.Connect(g.AddSource("a", value.Ints([]int64{1})), add, 0)
	g.Connect(g.AddSource("a", value.Ints([]int64{2})), add, 1)
	g.Connect(add, g.AddSink("out"), 0)
	in := map[string][]value.Value{"a": value.Ints([]int64{3}), "nope": value.Ints([]int64{4})}
	for _, opt := range []Options{{Inputs: in}, {Inputs: in, Batch: 2}} {
		if _, err := Run(g, opt); err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
			t.Fatalf("shared labels, batch %d: err = %v, want unknown-label refusal", opt.Batch, err)
		}
	}
}

// TestPreparedPooledRunsIdentical pins the free-list pool: repeated and
// concurrent runs over one Prepared draw recycled scratch and must stay
// byte-identical to the first (cold-pool) run.
func TestPreparedPooledRunsIdentical(t *testing.T) {
	g, _ := fig2(32)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		res, err := p.Run(Options{})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles ||
			!reflect.DeepEqual(res.Firings, ref.Firings) {
			t.Fatalf("rep %d: pooled run diverged from cold run", rep)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(Options{})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles {
				errs <- fmt.Errorf("concurrent pooled run diverged from cold run")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTableMatchesExpandedGraph pins the numbering contract between the
// instruction table and graph.ExpandFIFOs: cell by cell and arc by arc
// the table is the expanded graph, so firing counts, trace cell IDs and
// stall diagnostics name the cells of Prepared.Graph. The graph puts FIFOs
// behind a source, a gated destination and an initial token, in front of
// a fan-out and a merge, and on a literal operand.
func TestTableMatchesExpandedGraph(t *testing.T) {
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3}))
	in := g.AddFIFO("in", 3)
	add := g.Add(graph.OpAdd, "acc")
	merge := g.Add(graph.OpMerge, "m")
	mctl := g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 3})
	fb := g.AddFIFO("fb", 1)
	out := g.AddFIFO("out", 2)
	lit := g.AddFIFO("lit", 2)
	neg := g.Add(graph.OpNeg, "")
	g.Connect(a, in, 0)
	g.Connect(in, add, 0)
	g.Connect(mctl, merge, 0)
	g.Connect(add, fb, 0)
	g.Connect(fb, merge, 1)
	g.SetLiteral(merge, 2, value.I(0))
	gate := g.AddGate(merge)
	g.Connect(g.AddCtl("gctl", graph.Pattern{Body: []bool{true}, Repeat: 4}), merge, gate)
	g.SetInit(g.ConnectGated(merge, gate, out, 0), value.I(7))
	g.Connect(merge, add, 1)
	g.Connect(out, g.AddSink("x"), 0)
	g.Connect(out, neg, 0)
	g.Connect(neg, g.AddSink("y"), 0)
	g.SetLiteral(lit, 0, value.R(2.5))
	g.Connect(lit, g.AddSink("z"), 0)

	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	eg, tab := g.ExpandFIFOs(), &p.tab
	if len(tab.cells) != eg.NumNodes() || len(tab.arcs) != eg.NumArcs() {
		t.Fatalf("table has %d cells and %d arcs, expanded graph %d and %d",
			len(tab.cells), len(tab.arcs), eg.NumNodes(), eg.NumArcs())
	}
	var sources, sinks []string
	for _, n := range eg.Nodes() {
		c := &tab.cells[n.ID]
		if c.op != n.Op || int(c.p1-c.p0) != len(n.In) {
			t.Fatalf("cell %d: op %s with %d ports, node %s with %d", n.ID, c.op, c.p1-c.p0, n.Name(), len(n.In))
		}
		for port, in := range n.In {
			got := tab.port(c, port)
			switch {
			case in.Literal != nil && (got >= 0 || !value.Equal(tab.lits[^got], *in.Literal)):
				t.Errorf("%s port %d: entry %d, want literal %v", n.Name(), port, got, *in.Literal)
			case in.Arc != nil && got != int32(in.Arc.ID):
				t.Errorf("%s port %d: entry %d, want arc %d", n.Name(), port, got, in.Arc.ID)
			}
		}
		var want []dest
		for _, a := range n.Out {
			want = append(want, dest{arc: int32(a.ID), gate: int32(a.Gate)})
		}
		if got := tab.outs[c.o0:c.o1]; !reflect.DeepEqual(append([]dest(nil), got...), want) {
			t.Errorf("%s destinations %v, want %v", n.Name(), got, want)
		}
		switch n.Op {
		case graph.OpSource:
			sources = append(sources, n.Label)
		case graph.OpSink:
			sinks = append(sinks, n.Label)
		}
	}
	var inits []arcInit
	for _, a := range eg.Arcs() {
		if got, want := tab.arcs[a.ID], (arcEnds{int32(a.From), int32(a.To), int32(a.ToPort)}); got != want {
			t.Errorf("arc %d ends %v, want %v", a.ID, got, want)
		}
		if a.Init != nil {
			inits = append(inits, arcInit{int32(a.ID), *a.Init})
		}
	}
	if !reflect.DeepEqual(tab.inits, inits) || !reflect.DeepEqual(tab.sinks, sinks) ||
		len(tab.sources) != len(sources) || tab.sources[0].label != sources[0] {
		t.Errorf("inits %v sinks %v sources %v, want %v %v %v", tab.inits, tab.sinks, tab.sources, inits, sinks, sources)
	}
}
