package graph

import (
	"reflect"
	"testing"

	"staticpipe/internal/value"
)

// TestTableMatchesExpandedGraph pins the numbering contract between the
// instruction table and ExpandFIFOs: cell by cell and arc by arc
// the table is the expanded graph, so firing counts, trace cell IDs and
// stall diagnostics name the cells of Table.Graph. The graph puts FIFOs
// behind a source, a gated destination and an initial token, in front of
// a fan-out and a merge, and on a literal operand; its loop arcs carry the
// Marking, Skew and Feedback annotations rate analysis reads.
func TestTableMatchesExpandedGraph(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3}))
	in := g.AddFIFO("in", 3)
	add := g.Add(OpAdd, "acc")
	merge := g.Add(OpMerge, "m")
	mctl := g.AddCtl("mctl", Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 3})
	fb := g.AddFIFO("fb", 1)
	out := g.AddFIFO("out", 2)
	lit := g.AddFIFO("lit", 2)
	neg := g.Add(OpNeg, "")
	g.Connect(a, in, 0)
	g.Connect(in, add, 0)
	g.Connect(mctl, merge, 0)
	g.Connect(add, fb, 0).Skew = 1
	reentry := g.Connect(fb, merge, 1)
	reentry.Feedback, reentry.Marking = true, 2
	g.SetLiteral(merge, 2, value.I(0))
	gate := g.AddGate(merge)
	g.Connect(g.AddCtl("gctl", Pattern{Body: []bool{true}, Repeat: 4}), merge, gate)
	g.SetInit(g.ConnectGated(merge, gate, out, 0), value.I(7))
	g.Connect(merge, add, 1)
	g.Connect(out, g.AddSink("x"), 0)
	g.Connect(out, neg, 0)
	g.Connect(neg, g.AddSink("y"), 0)
	g.SetLiteral(lit, 0, value.R(2.5))
	g.Connect(lit, g.AddSink("z"), 0)

	tab, err := Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	eg := g.ExpandFIFOs()
	if len(tab.Cells) != eg.NumNodes() || len(tab.Arcs) != eg.NumArcs() {
		t.Fatalf("table has %d cells and %d arcs, expanded graph %d and %d",
			len(tab.Cells), len(tab.Arcs), eg.NumNodes(), eg.NumArcs())
	}
	var sources, sinks []string
	for _, n := range eg.Nodes() {
		c := &tab.Cells[n.ID]
		if c.Op != n.Op || int(c.P1-c.P0) != len(n.In) {
			t.Fatalf("cell %d: op %s with %d ports, node %s with %d", n.ID, c.Op, c.P1-c.P0, n.Name(), len(n.In))
		}
		for port, in := range n.In {
			got := tab.Port(c, port)
			switch {
			case in.Literal != nil && (got >= 0 || !value.Equal(tab.Lits[^got], *in.Literal)):
				t.Errorf("%s port %d: entry %d, want literal %v", n.Name(), port, got, *in.Literal)
			case in.Arc != nil && got != int32(in.Arc.ID):
				t.Errorf("%s port %d: entry %d, want arc %d", n.Name(), port, got, in.Arc.ID)
			}
		}
		var want []Dest
		for _, a := range n.Out {
			want = append(want, Dest{Arc: int32(a.ID), Gate: int32(a.Gate)})
		}
		if got := tab.Outs[c.O0:c.O1]; !reflect.DeepEqual(append([]Dest(nil), got...), want) {
			t.Errorf("%s destinations %v, want %v", n.Name(), got, want)
		}
		switch n.Op {
		case OpSource:
			sources = append(sources, n.Label)
		case OpSink:
			sinks = append(sinks, n.Label)
		}
	}
	var inits []ArcInit
	var attrs []ArcAttr
	for _, a := range eg.Arcs() {
		if got, want := tab.Arcs[a.ID], (ArcEnds{int32(a.From), int32(a.To), int32(a.ToPort)}); got != want {
			t.Errorf("arc %d ends %v, want %v", a.ID, got, want)
		}
		if a.Init != nil {
			inits = append(inits, ArcInit{int32(a.ID), *a.Init})
		}
		if a.Marking != 0 || a.Skew != 0 || a.Feedback {
			attrs = append(attrs, ArcAttr{int32(a.ID), int32(a.Marking), int32(a.Skew), a.Feedback})
		}
	}
	if len(attrs) != 2 || !reflect.DeepEqual(tab.Attrs, attrs) {
		t.Errorf("annotated arcs %v, want %v", tab.Attrs, attrs)
	}
	if !reflect.DeepEqual(tab.Inits, inits) || !reflect.DeepEqual(tab.Sinks, sinks) ||
		len(tab.Sources) != len(sources) || tab.Sources[0].Label != sources[0] {
		t.Errorf("inits %v sinks %v sources %v, want %v %v %v", tab.Inits, tab.Sinks, tab.Sources, inits, sinks, sources)
	}
}
