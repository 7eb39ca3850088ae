package control

import (
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

func boolsOf(p graph.Pattern) []bool { return p.Values() }

func TestWindow(t *testing.T) {
	p := Window(1, 3, 6)
	want := []bool{false, true, true, true, false, false}
	got := boolsOf(p)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Window[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// whole-range window
	all := boolsOf(Window(0, 4, 5))
	for i, b := range all {
		if !b {
			t.Errorf("full window position %d false", i)
		}
	}
}

func TestWindowPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Window(-1, 2, 4) },
		func() { Window(2, 1, 4) },
		func() { Window(0, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEndsAndInterior(t *testing.T) {
	e := boolsOf(Ends(5))
	in := boolsOf(Interior(5))
	wantE := []bool{true, false, false, false, true}
	for i := range wantE {
		if e[i] != wantE[i] {
			t.Errorf("Ends[%d] = %v", i, e[i])
		}
		if in[i] != !wantE[i] {
			t.Errorf("Interior[%d] = %v", i, in[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Ends(1) should panic")
		}
	}()
	Ends(1)
}

func TestRepeat(t *testing.T) {
	r := boolsOf(Repeat(true, 4))
	if len(r) != 4 || !r[0] || !r[3] {
		t.Errorf("Repeat = %v", r)
	}
}

// runToSink attaches a sink to node out and simulates.
func runToSink(t *testing.T, g *graph.Graph, out *graph.Node) *exec.Result {
	t.Helper()
	sink := g.AddSink("out")
	g.Connect(out, sink, 0)
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCounterLiteral(t *testing.T) {
	g := graph.New()
	c := Counter(g, "i", 0, 1, 9)
	res := runToSink(t, g, c)
	got := res.Output("out")
	if len(got) != 10 {
		t.Fatalf("counter emitted %d values, want 10", len(got))
	}
	for i, v := range got {
		if v.AsInt() != int64(i) {
			t.Errorf("i[%d] = %v", i, v)
		}
	}
	if !res.Clean {
		t.Errorf("counter should quiesce cleanly: %v", res.Stalled)
	}
	// The literal counter's feedback cycle has 3 cells and 1 token: II = 3.
	if ii := res.II("out"); ii != 3 {
		t.Errorf("counter II = %v, want 3", ii)
	}
}

func TestCounterStride(t *testing.T) {
	g := graph.New()
	c := Counter(g, "i", 3, 2, 9)
	res := runToSink(t, g, c)
	got := res.Output("out")
	want := []int64{3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("i[%d] = %v, want %d", i, got[i], want[i])
		}
	}
}

func TestCounterStrideOvershoot(t *testing.T) {
	// hi not reachable exactly: 0,3,6 for hi=7.
	g := graph.New()
	c := Counter(g, "i", 0, 3, 7)
	res := runToSink(t, g, c)
	got := res.Output("out")
	want := []int64{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("i[%d] = %v, want %d", i, got[i], want[i])
		}
	}
}

func TestCounterPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Counter(graph.New(), "i", 0, 0, 5)
}

func TestAlternatorFullRate(t *testing.T) {
	g := graph.New()
	a := Alternator(g, "alt")
	// Terminate the run by consuming through a gate with a finite pattern.
	gate := g.Add(graph.OpTGate, "take")
	ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: 20, Suffix: []bool{false}})
	g.Connect(ctl, gate, 0)
	g.Connect(a, gate, 1)
	res := runToSink(t, g, gate)
	got := res.Output("out")
	if len(got) != 20 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v.AsBool() != (i%2 == 0) {
			t.Errorf("alt[%d] = %v", i, v)
		}
	}
	if ii := res.II("out"); ii != 2 {
		t.Errorf("alternator II = %v, want 2 (full rate)", ii)
	}
	if res.Clean {
		t.Error("free-running alternator should leave residual tokens")
	}
}

func TestIndexStreamFullRate(t *testing.T) {
	g := graph.New()
	idx := IndexStream(g, "i", 0, 19)
	res := runToSink(t, g, idx)
	got := res.Output("out")
	if len(got) != 20 {
		t.Fatalf("index stream emitted %d values, want 20", len(got))
	}
	for i, v := range got {
		if v.AsInt() != int64(i) {
			t.Errorf("i[%d] = %v", i, v)
		}
	}
	// The headline property: interleaved counters reach the maximum rate
	// that a single literal counter (II = 3) cannot.
	if ii := res.II("out"); ii != 2 {
		t.Errorf("index stream II = %v, want 2", ii)
	}
}

func TestIndexStreamDegenerate(t *testing.T) {
	g := graph.New()
	idx := IndexStream(g, "i", 5, 5)
	res := runToSink(t, g, idx)
	got := res.Output("out")
	if len(got) != 1 || got[0].AsInt() != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
	if !res.Clean {
		t.Errorf("degenerate stream should be clean: %v", res.Stalled)
	}
}

func TestIndexStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	IndexStream(graph.New(), "i", 5, 4)
}

func TestPredicateLiteral(t *testing.T) {
	g := graph.New()
	idx := IndexStream(g, "i", 0, 9)
	p := Predicate(g, "lt5", idx, graph.OpLT, 5)
	res := runToSink(t, g, p)
	got := res.Output("out")
	if len(got) != 10 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v.AsBool() != (i < 5) {
			t.Errorf("p[%d] = %v", i, v)
		}
	}
}

func TestPredicateRejectsNonRelational(t *testing.T) {
	g := graph.New()
	idx := Counter(g, "i", 0, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Predicate(g, "bad", idx, graph.OpAdd, 5)
}

// TestLiteralMatchesIdealized cross-checks: the literal window construction
// (index stream + predicates + AND) selects exactly the same elements as
// the idealized Window pattern.
func TestLiteralMatchesIdealized(t *testing.T) {
	const lo, hi, n = 2, 7, 12
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(10 + i)
	}

	// Idealized.
	gi := graph.New()
	src := gi.AddSource("C", value.Reals(vals))
	gate := gi.Add(graph.OpTGate, "sel")
	gi.Connect(gi.AddCtl("w", Window(lo, hi, n)), gate, 0)
	gi.Connect(src, gate, 1)
	ideal := runToSink(t, gi, gate)

	// Literal: i >= lo AND i <= hi computed from an index stream.
	gl := graph.New()
	srcL := gl.AddSource("C", value.Reals(vals))
	idx := IndexStream(gl, "i", 0, n-1)
	ge := Predicate(gl, "ge", idx, graph.OpGE, lo)
	le := Predicate(gl, "le", idx, graph.OpLE, hi)
	and := gl.Add(graph.OpAnd, "in")
	gl.Connect(ge, and, 0)
	gl.Connect(le, and, 1)
	gateL := gl.Add(graph.OpTGate, "sel")
	gl.Connect(and, gateL, 0)
	gl.Connect(srcL, gateL, 1)
	lit := runToSink(t, gl, gateL)

	iv, lv := ideal.Output("out"), lit.Output("out")
	if len(iv) != hi-lo+1 || len(lv) != len(iv) {
		t.Fatalf("lengths: ideal %d, literal %d, want %d", len(iv), len(lv), hi-lo+1)
	}
	for i := range iv {
		if !value.Equal(iv[i], lv[i]) {
			t.Errorf("element %d: ideal %v, literal %v", i, iv[i], lv[i])
		}
	}
}
