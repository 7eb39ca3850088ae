package exec

import (
	"strings"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// fig2 builds the paper's Figure 2 pipeline over n input pairs:
// let y = a*b in (y+2.)*(y-3.)
func fig2(n int) (*graph.Graph, []float64) {
	g := graph.New()
	as := make([]float64, n)
	bs := make([]float64, n)
	want := make([]float64, n)
	for i := range as {
		as[i] = float64(i) + 0.5
		bs[i] = float64(2*i) - 3.25
		y := as[i] * bs[i]
		want[i] = (y + 2) * (y - 3)
	}
	a := g.AddSource("a", value.Reals(as))
	b := g.AddSource("b", value.Reals(bs))
	mul := g.Add(graph.OpMul, "cell1")
	add := g.Add(graph.OpAdd, "cell2")
	sub := g.Add(graph.OpSub, "cell3")
	mul2 := g.Add(graph.OpMul, "cell4")
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
	return g, want
}

func TestFig2Pipeline(t *testing.T) {
	g, want := fig2(64)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.Output("out")
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AsReal() != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !res.Clean {
		t.Errorf("pipeline did not drain: %v", res.Stalled)
	}
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2 (fully pipelined)", ii)
	}
	if !res.FullyPipelined("out") {
		t.Error("FullyPipelined = false")
	}
}

// TestMaximumRateIsTwoCycles verifies the paper's §3 claim directly: the
// repetition rate of any cell is one firing per two instruction times, so a
// simple chain sustains II=2 regardless of length.
func TestMaximumRateIsTwoCycles(t *testing.T) {
	for _, stages := range []int{1, 2, 3, 8, 64} {
		g := graph.New()
		src := g.AddSource("in", value.Reals(ramp(100)))
		prev := src
		for i := 0; i < stages; i++ {
			id := g.Add(graph.OpID, "")
			g.Connect(prev, id, 0)
			prev = id
		}
		sink := g.AddSink("out")
		g.Connect(prev, sink, 0)
		res, err := Run(g, Options{})
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if ii := res.II("out"); ii != 2 {
			t.Errorf("stages=%d: II = %v, want 2", stages, ii)
		}
		// latency grows with stages but rate does not (paper §3: "the
		// computation rate of a pipeline is not dependent on the number of
		// stages").
		first := res.Arrivals["out"][0].Cycle
		if first < stages {
			t.Errorf("stages=%d: first arrival at %d, expected ≥ stage count", stages, first)
		}
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

// TestUnbalancedDiamondThrottles shows why balancing matters: reconvergent
// paths of lengths 1 and 2 force II=3; inserting a one-stage buffer on the
// short path restores II=2.
func TestUnbalancedDiamondThrottles(t *testing.T) {
	build := func(buffer bool) *graph.Graph {
		g := graph.New()
		src := g.AddSource("in", value.Reals(ramp(64)))
		id := g.Add(graph.OpID, "long")
		add := g.Add(graph.OpAdd, "join")
		sink := g.AddSink("out")
		g.Connect(src, id, 0)
		g.Connect(id, add, 0)
		short := g.Connect(src, add, 1)
		g.Connect(add, sink, 0)
		if buffer {
			g.InsertFIFO(short, 1)
		}
		return g
	}
	unbal, err := Run(build(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ii := unbal.II("out"); ii != 3 {
		t.Errorf("unbalanced II = %v, want 3", ii)
	}
	bal, err := Run(build(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ii := bal.II("out"); ii != 2 {
		t.Errorf("balanced II = %v, want 2", ii)
	}
	// Same results either way.
	for i := range unbal.Output("out") {
		if !value.Equal(unbal.Output("out")[i], bal.Output("out")[i]) {
			t.Fatalf("output %d differs between balanced and unbalanced runs", i)
		}
	}
}

// TestRingRate verifies the cycle theorem: a loop of L cells carrying one
// token produces one output every L cycles — the mechanism behind the
// paper's 1/3 rate for Todd's for-iter scheme.
func TestRingRate(t *testing.T) {
	for _, ringLen := range []int{3, 4, 5} {
		n := 30
		g := graph.New()
		// gate closes the ring: while control is true it forwards both to
		// the ring and to the sink; the final false discards the token.
		gate := g.Add(graph.OpTGate, "gate")
		ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: n, Suffix: []bool{false}})
		g.Connect(ctl, gate, 0)
		prev := gate
		for i := 0; i < ringLen-1; i++ {
			id := g.Add(graph.OpID, "")
			g.Connect(prev, id, 0)
			prev = id
		}
		back := g.Connect(prev, gate, 1)
		g.SetInit(back, value.R(7))
		sink := g.AddSink("out")
		g.Connect(gate, sink, 0)

		res, err := Run(g, Options{})
		if err != nil {
			t.Fatalf("ring %d: %v", ringLen, err)
		}
		if got := len(res.Output("out")); got != n {
			t.Fatalf("ring %d: %d outputs, want %d", ringLen, got, n)
		}
		wantII := float64(ringLen)
		if ringLen < 3 {
			wantII = 2 // a cell cannot beat one firing per two cycles
		}
		if ii := res.II("out"); ii != wantII {
			t.Errorf("ring %d: II = %v, want %v", ringLen, ii, wantII)
		}
	}
}

// TestRingTwoTokens verifies that two circulating tokens double a 4-cell
// ring's rate to the maximum — the companion-pipeline effect of Fig 8.
func TestRingTwoTokens(t *testing.T) {
	n := 40
	g := graph.New()
	gate := g.Add(graph.OpTGate, "gate")
	ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: n, Suffix: []bool{false, false}})
	g.Connect(ctl, gate, 0)
	a := g.Add(graph.OpID, "a")
	b := g.Add(graph.OpID, "b")
	cc := g.Add(graph.OpID, "c")
	g.Connect(gate, a, 0)
	mid := g.Connect(a, b, 0)
	g.Connect(b, cc, 0)
	back := g.Connect(cc, gate, 1)
	g.SetInit(back, value.R(1))
	g.SetInit(mid, value.R(2))
	sink := g.AddSink("out")
	g.Connect(gate, sink, 0)

	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Output("out")); got != n {
		t.Fatalf("%d outputs, want %d", got, n)
	}
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2 (4-cell ring, 2 tokens)", ii)
	}
}

// TestTGateSelection reproduces the selection step of Fig 4: an m+2 element
// stream is filtered to the m interior elements by an <F T^m F> control.
func TestTGateSelection(t *testing.T) {
	m := 10
	vals := ramp(m + 2)
	g := graph.New()
	src := g.AddSource("C", value.Reals(vals))
	ctl := g.AddCtl("sel", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: m, Suffix: []bool{false}})
	gate := g.Add(graph.OpTGate, "select")
	sink := g.AddSink("out")
	g.Connect(ctl, gate, 0)
	g.Connect(src, gate, 1)
	g.Connect(gate, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	if len(got) != m {
		t.Fatalf("selected %d values, want %d", len(got), m)
	}
	for i := 0; i < m; i++ {
		if got[i].AsReal() != vals[i+1] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], vals[i+1])
		}
	}
	if !res.Clean {
		t.Errorf("discards should leave nothing stranded: %v", res.Stalled)
	}
}

func TestFGateSelection(t *testing.T) {
	g := graph.New()
	src := g.AddSource("x", value.Ints([]int64{1, 2, 3, 4}))
	ctl := g.AddCtl("sel", graph.Pattern{Prefix: []bool{true, false, true, false}})
	gate := g.Add(graph.OpFGate, "fsel")
	sink := g.AddSink("out")
	g.Connect(ctl, gate, 0)
	g.Connect(src, gate, 1)
	g.Connect(gate, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	if len(got) != 2 || got[0].AsInt() != 2 || got[1].AsInt() != 4 {
		t.Fatalf("FGate selected %v, want [2 4]", got)
	}
}

// TestMerge verifies the MERGE cell semantics of §5: the control operand
// directs which data operand is forwarded, leaving the other untouched.
func TestMerge(t *testing.T) {
	g := graph.New()
	tvals := g.AddSource("t", value.Ints([]int64{10, 11, 12}))
	fvals := g.AddSource("f", value.Ints([]int64{20, 21}))
	ctl := g.AddCtl("m", graph.Pattern{Prefix: []bool{true, false, true, false, true}})
	merge := g.Add(graph.OpMerge, "merge")
	sink := g.AddSink("out")
	g.Connect(ctl, merge, 0)
	g.Connect(tvals, merge, 1)
	g.Connect(fvals, merge, 2)
	g.Connect(merge, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	want := []int64{10, 20, 11, 21, 12}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("out[%d] = %v, want %d", i, got[i], want[i])
		}
	}
	if !res.Clean {
		t.Errorf("merge run not clean: %v", res.Stalled)
	}
}

// TestGatedDestination exercises the conditional-destination mechanism used
// by the for-iter feedback of Fig 7: extra control ports gate the merge's
// two destinations independently ("fed back under the output switch control
// values").
func TestGatedDestination(t *testing.T) {
	// Compute the running sum x_i = x_{i-1} + a_i for a = 1..5, x_0 = 0.
	// The MERGE fires 6 times emitting x_0..x_5; x_0 is injected via the
	// false arm (a constant operand) and suppressed at the sink by one
	// gate, while the feedback is suppressed after x_4 by the other.
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
	add := g.Add(graph.OpAdd, "acc")
	merge := g.Add(graph.OpMerge, "m")
	mctl := g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5})
	sink := g.AddSink("x")

	g.Connect(mctl, merge, 0)
	g.Connect(add, merge, 1)
	g.SetLiteral(merge, 2, value.I(0)) // initial x_0 as constant operand
	outGate := g.AddGate(merge)
	g.Connect(g.AddCtl("outctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, outGate)
	fbGate := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, fbGate)

	g.Connect(a, add, 0)
	g.ConnectGated(merge, fbGate, add, 1)
	g.ConnectGated(merge, outGate, sink, 0)

	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("x")
	want := []int64{1, 3, 6, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("x[%d] = %v, want %d", i, got[i], want[i])
		}
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

func TestInitialToken(t *testing.T) {
	g := graph.New()
	src := g.AddSource("a", value.Ints([]int64{1, 2}))
	add := g.Add(graph.OpAdd, "")
	sink := g.AddSink("out")
	g.Connect(src, add, 0)
	id := g.Add(graph.OpID, "loopback")
	arc := g.Connect(id, add, 1)
	g.SetInit(arc, value.I(100))
	g.Connect(add, id, 0)
	g.Connect(add, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	// x0 = 1+100 = 101, x1 = 2+101 = 103
	if len(got) != 2 || got[0].AsInt() != 101 || got[1].AsInt() != 103 {
		t.Fatalf("got %v, want [101 103]", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// An ADD whose second operand never arrives: quiesces dirty.
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3}))
	b := g.AddSource("b", value.Ints([]int64{5})) // too short
	add := g.Add(graph.OpAdd, "")
	sink := g.AddSink("out")
	g.Connect(a, add, 0)
	g.Connect(b, add, 1)
	g.Connect(add, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatal("expected a dirty quiescence")
	}
	if len(res.Output("out")) != 1 {
		t.Errorf("got %d outputs, want 1", len(res.Output("out")))
	}
	if len(res.Stalled) == 0 {
		t.Error("expected stall diagnostics")
	}
}

func TestMaxCyclesExceeded(t *testing.T) {
	// A free-running ring never quiesces: the bound must trip.
	g := graph.New()
	a := g.Add(graph.OpID, "a")
	b := g.Add(graph.OpID, "b")
	arc := g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	g.SetInit(arc, value.I(1))
	_, err := Run(g, Options{MaxCycles: 100})
	if err == nil {
		t.Fatal("expected MaxCycles error")
	}
}

func TestValidationFailurePropagates(t *testing.T) {
	g := graph.New()
	g.Add(graph.OpAdd, "unbound")
	if _, err := Run(g, Options{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDuplicateSinkLabel(t *testing.T) {
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1}))
	s1 := g.AddSink("out")
	s2 := g.AddSink("out")
	id := g.Add(graph.OpID, "")
	g.Connect(a, id, 0)
	g.Connect(id, s1, 0)
	g.Connect(id, s2, 0)
	if _, err := Run(g, Options{}); err == nil {
		t.Fatal("expected duplicate-sink error")
	}
}

func TestFIFOExpandedExecution(t *testing.T) {
	// A FIFO(4) behaves as four identity stages: results unchanged, clean
	// drain, II still 2.
	g := graph.New()
	src := g.AddSource("in", value.Reals(ramp(32)))
	f := g.AddFIFO("buf", 4)
	sink := g.AddSink("out")
	g.Connect(src, f, 0)
	g.Connect(f, sink, 0)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output("out")) != 32 {
		t.Fatalf("got %d outputs", len(res.Output("out")))
	}
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2", ii)
	}
	if res.Graph.NumNodes() != 6 { // src + 4 IDs + sink
		t.Errorf("expanded nodes = %d, want 6", res.Graph.NumNodes())
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := fig2(32)
	g2, _ := fig2(32)
	r1, err1 := Run(g1, Options{})
	r2, err2 := Run(g2, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("cycle counts differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	for i := range r1.Firings {
		if r1.Firings[i] != r2.Firings[i] {
			t.Errorf("firing count of node %d differs", i)
		}
	}
}

func TestIIEdgeCases(t *testing.T) {
	r := &Result{Arrivals: map[string][]Arrival{"out": nil}}
	if r.II("out") != 0 {
		t.Error("II of empty stream should be 0")
	}
	if r.FullyPipelined("out") {
		t.Error("empty stream is not fully pipelined")
	}
	r.Arrivals["out"] = []Arrival{{Cycle: 3}, {Cycle: 5}}
	if r.II("out") != 2 {
		t.Errorf("II = %v, want 2", r.II("out"))
	}
}

func TestDescribe(t *testing.T) {
	g, _ := fig2(16)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Describe(res)
	if s == "" {
		t.Error("Describe returned empty string")
	}
}

func TestWaterfall(t *testing.T) {
	g, _ := fig2(8)
	chart, err := Waterfall(g, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MULT", "SINK", "#", "cells,"} {
		if !strings.Contains(chart, want) {
			t.Errorf("waterfall missing %q:\n%s", want, chart)
		}
	}
	// The sink row must show arrivals.
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, "SINK") && !strings.Contains(line, "#") {
			t.Errorf("sink row empty: %s", line)
		}
	}
	// Truncation path.
	g2, _ := fig2(64)
	chart2, err := Waterfall(g2, Options{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart2, "showing first 20") {
		t.Error("truncation note missing")
	}
	// Error path.
	bad := graph.New()
	bad.Add(graph.OpAdd, "unbound")
	if _, err := Waterfall(bad, Options{}, 0); err == nil {
		t.Error("invalid graph accepted")
	}
}
