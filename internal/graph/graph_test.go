package graph

import (
	"strings"
	"testing"

	"staticpipe/internal/value"
)

func TestOpArity(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{OpSource, 0}, {OpCtlGen, 0},
		{OpID, 1}, {OpNeg, 1}, {OpNot, 1}, {OpSink, 1}, {OpFIFO, 1}, {OpAbs, 1},
		{OpAdd, 2}, {OpMul, 2}, {OpLT, 2}, {OpAnd, 2}, {OpTGate, 2}, {OpFGate, 2},
		{OpMerge, 3},
		{OpInvalid, -1},
	}
	for _, c := range cases {
		if got := c.op.NumIn(); got != c.want {
			t.Errorf("%s.NumIn() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpMul.String() != "MULT" {
		t.Errorf("OpMul = %q, want MULT", OpMul.String())
	}
	if OpMerge.String() != "MERG" {
		t.Errorf("OpMerge = %q, want MERG", OpMerge.String())
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Errorf("unknown op should render its number, got %q", Op(200).String())
	}
}

// buildFig2 constructs the paper's Figure 2 pipeline:
// y = a*b in (y+2.)*(y-3.)
func buildFig2() (*Graph, *Node, *Node, *Node) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1, 2, 3}))
	b := g.AddSource("b", value.Reals([]float64{4, 5, 6}))
	mul := g.Add(OpMul, "cell1")
	add := g.Add(OpAdd, "cell2")
	sub := g.Add(OpSub, "cell3")
	mul2 := g.Add(OpMul, "cell4")
	sink := g.AddSink("out")
	g.Connect(a, mul, 0)
	g.Connect(b, mul, 1)
	g.Connect(mul, add, 0)
	g.SetLiteral(add, 1, value.R(2))
	g.Connect(mul, sub, 0)
	g.SetLiteral(sub, 1, value.R(3))
	g.Connect(add, mul2, 0)
	g.Connect(sub, mul2, 1)
	g.Connect(mul2, sink, 0)
	return g, mul, add, sink
}

func TestValidateOK(t *testing.T) {
	g, _, _, _ := buildFig2()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 7 {
		t.Errorf("NumNodes = %d, want 7", g.NumNodes())
	}
	if g.NumArcs() != 7 {
		t.Errorf("NumArcs = %d, want 7", g.NumArcs())
	}
}

func TestValidateUnboundPort(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1}))
	add := g.Add(OpAdd, "")
	sink := g.AddSink("out")
	g.Connect(a, add, 0)
	g.Connect(add, sink, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("expected unbound-port error")
	}
}

func TestValidateUnconsumedResult(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1}))
	id := g.Add(OpID, "")
	g.Connect(a, id, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("expected unconsumed-result error")
	}
}

func TestValidateMissingStream(t *testing.T) {
	g := New()
	s := g.Add(OpSource, "a")
	sink := g.AddSink("out")
	g.Connect(s, sink, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("expected missing-stream error")
	}
}

func TestValidateBadFIFO(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1}))
	f := g.Add(OpFIFO, "f") // Cap left 0
	sink := g.AddSink("out")
	g.Connect(a, f, 0)
	g.Connect(f, sink, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("expected bad-FIFO error")
	}
}

func TestDoubleFeedPanics(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1}))
	b := g.AddSource("b", value.Reals([]float64{1}))
	id := g.Add(OpID, "")
	g.Connect(a, id, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double-feeding a port")
		}
	}()
	g.Connect(b, id, 0)
}

func TestLiteralThenArcPanics(t *testing.T) {
	g := New()
	a := g.AddSource("a", value.Reals([]float64{1}))
	add := g.Add(OpAdd, "")
	g.SetLiteral(add, 0, value.R(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic connecting over a literal")
		}
	}()
	g.Connect(a, add, 0)
}

func TestConnectFromSinkPanics(t *testing.T) {
	g := New()
	sink := g.AddSink("out")
	id := g.Add(OpID, "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic connecting from a sink")
		}
	}()
	g.Connect(sink, id, 0)
}

func TestTopoSort(t *testing.T) {
	g, _, _, _ := buildFig2()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := map[NodeID]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Errorf("arc %d -> %d violates topological order", a.From, a.To)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	a := g.Add(OpID, "a")
	b := g.Add(OpID, "b")
	g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	if _, err := g.TopoSort(); err != ErrCyclic {
		t.Fatalf("TopoSort on cycle: got %v, want ErrCyclic", err)
	}
}

func TestInsertFIFO(t *testing.T) {
	g, mul, add, _ := buildFig2()
	arc := add.In[0].Arc
	f := g.InsertFIFO(arc, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after InsertFIFO: %v", err)
	}
	if f.Cap != 3 || !f.Buffer {
		t.Errorf("FIFO cap=%d buffer=%v, want 3/true", f.Cap, f.Buffer)
	}
	if add.In[0].Arc.From != f.ID {
		t.Errorf("add port 0 now fed by %d, want FIFO %d", add.In[0].Arc.From, f.ID)
	}
	if arc.To != f.ID {
		t.Errorf("original arc redirected to %d, want FIFO %d", arc.To, f.ID)
	}
	_ = mul
}

func TestExpandFIFOs(t *testing.T) {
	g, _, add, _ := buildFig2()
	g.InsertFIFO(add.In[0].Arc, 3)
	before := g.NumNodes()
	ex := g.ExpandFIFOs()
	if ex == g {
		t.Fatal("expected a new graph after expansion")
	}
	if err := ex.Validate(); err != nil {
		t.Fatalf("expanded graph invalid: %v", err)
	}
	// FIFO(3) replaced by 3 ID cells: net +2 nodes.
	if ex.NumNodes() != before+2 {
		t.Errorf("expanded nodes = %d, want %d", ex.NumNodes(), before+2)
	}
	ids := 0
	for _, n := range ex.Nodes() {
		if n.Op == OpFIFO {
			t.Error("FIFO survived expansion")
		}
		if n.Op == OpID && n.Buffer {
			ids++
		}
	}
	if ids != 3 {
		t.Errorf("buffer ID cells = %d, want 3", ids)
	}
}

func TestExpandFIFOsNoop(t *testing.T) {
	g, _, _, _ := buildFig2()
	if g.ExpandFIFOs() != g {
		t.Error("graph without FIFOs should be returned unchanged")
	}
}

func TestExpandFIFOPreservesInit(t *testing.T) {
	g := New()
	a := g.Add(OpID, "a")
	f := g.AddFIFO("f", 2)
	sink := g.AddSink("out")
	src := g.AddSource("s", value.Reals([]float64{1}))
	g.Connect(src, a, 0)
	arc := g.Connect(a, f, 0)
	g.SetInit(arc, value.R(9))
	g.Connect(f, sink, 0)
	ex := g.ExpandFIFOs()
	found := 0
	for _, na := range ex.Arcs() {
		if na.Init != nil {
			found++
			if na.Init.AsReal() != 9 {
				t.Errorf("init token = %v, want 9", na.Init)
			}
		}
	}
	if found != 1 {
		t.Errorf("init tokens after expansion = %d, want 1", found)
	}
}

func TestPattern(t *testing.T) {
	// <F T^3 F> — the Fig 4 selection stream for m=3.
	p := Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 3, Suffix: []bool{false}}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	want := []bool{false, true, true, true, false}
	got := p.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("At(%d) = %v, want %v", i, got[i], want[i])
		}
	}
	if s := p.String(); s != "<F(T)^3F>" {
		t.Errorf("String = %q", s)
	}
}

func TestPatternInfinite(t *testing.T) {
	p := Pattern{Body: []bool{true, false}, Repeat: -1}
	if p.Len() != -1 {
		t.Fatalf("Len = %d, want -1", p.Len())
	}
	for i := 0; i < 10; i++ {
		if p.At(i) != (i%2 == 0) {
			t.Errorf("At(%d) = %v", i, p.At(i))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Values on infinite pattern should panic")
		}
	}()
	p.Values()
}

func TestPatternOutOfRange(t *testing.T) {
	p := Pattern{Prefix: []bool{true}}
	defer func() {
		if recover() == nil {
			t.Error("At out of range should panic")
		}
	}()
	p.At(1)
}

func TestAddGate(t *testing.T) {
	g := New()
	m := g.Add(OpMerge, "m")
	gp := g.AddGate(m)
	if gp != 3 {
		t.Fatalf("AddGate port = %d, want 3", gp)
	}
	id := g.Add(OpID, "x")
	g.ConnectGated(m, gp, id, 0)
	if len(m.Out) != 1 || m.Out[0].Gate != 3 {
		t.Errorf("gated arcs = %v, want one gated by port 3", m.Out)
	}
}

func TestValidateExtraPortsRejectedOnSource(t *testing.T) {
	g := New()
	s := g.AddSource("s", value.Reals([]float64{1}))
	g.AddGate(s)
	sink := g.AddSink("out")
	g.Connect(s, sink, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for extra port on a source")
	}
}

func TestStats(t *testing.T) {
	g, _, add, _ := buildFig2()
	g.InsertFIFO(add.In[0].Arc, 4)
	s := g.ComputeStats()
	if s.Cells != 8 {
		t.Errorf("Cells = %d, want 8", s.Cells)
	}
	if s.BufferCells != 1 || s.BufferUnits != 4 {
		t.Errorf("BufferCells=%d BufferUnits=%d, want 1/4", s.BufferCells, s.BufferUnits)
	}
	if s.ByOp[OpMul] != 2 {
		t.Errorf("MULT count = %d, want 2", s.ByOp[OpMul])
	}
}

func TestStringAndDOT(t *testing.T) {
	g, _, _, _ := buildFig2()
	txt := g.String()
	for _, want := range []string{"MULT", "ADD", "SUB", "SRC", "SINK"} {
		if !strings.Contains(txt, want) {
			t.Errorf("String() missing %q", want)
		}
	}
	dot := g.DOT("fig2")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Error("DOT output malformed")
	}
}

func TestNodeName(t *testing.T) {
	g := New()
	n := g.Add(OpAdd, "p")
	if n.Name() != "ADD#0(p)" {
		t.Errorf("Name = %q", n.Name())
	}
	m := g.Add(OpMul, "")
	if m.Name() != "MULT#1" {
		t.Errorf("Name = %q", m.Name())
	}
}
