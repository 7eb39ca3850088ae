package passes

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// diamond builds a valid graph with two reconvergent paths of different
// length (src -> b directly and src -> a -> b) — balanced only after a
// balancing pass.
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	src := g.AddSource("in", []value.Value{})
	a := g.Add(graph.OpID, "a")
	b := g.Add(graph.OpAdd, "b")
	g.Connect(src, a, 0)
	g.Connect(a, b, 0)
	g.Connect(src, b, 1)
	g.Connect(b, g.AddSink("out"), 0)
	if err := g.Verify(); err != nil {
		t.Fatalf("diamond graph invalid: %v", err)
	}
	return g
}

func TestEmptyPassList(t *testing.T) {
	g := diamond(t)
	ctx := &Context{VerifyEach: true}
	out, err := NewManager().Run(g, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out != g {
		t.Error("empty pipeline replaced the graph")
	}
	if len(ctx.Stats) != 0 {
		t.Errorf("empty pipeline recorded %d stats", len(ctx.Stats))
	}
}

func TestIdentityPass(t *testing.T) {
	g := diamond(t)
	cells := g.NumNodes()
	id := Func{PassName: "identity", Fn: func(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
		return nil, nil // nil graph means "unchanged"
	}}
	ctx := &Context{VerifyEach: true}
	out, err := NewManager(id).Run(g, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out != g {
		t.Error("identity pass replaced the graph")
	}
	if len(ctx.Stats) != 1 || ctx.Stats[0].Name != "identity" {
		t.Fatalf("stats = %v", ctx.Stats)
	}
	if s := ctx.Stats[0]; s.CellsBefore != cells || s.CellsAfter != cells {
		t.Errorf("identity stat records %d -> %d cells, want %d", s.CellsBefore, s.CellsAfter, cells)
	}
}

func TestRunWithNilContext(t *testing.T) {
	if _, err := NewManager(Balance{}).Run(diamond(t), nil); err != nil {
		t.Fatal(err)
	}
}

func TestPassErrorWrapped(t *testing.T) {
	boom := errors.New("boom")
	bad := Func{PassName: "bad", Fn: func(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
		return nil, boom
	}}
	_, err := NewManager(bad).Run(diamond(t), &Context{})
	if !errors.Is(err, boom) {
		t.Fatalf("error not wrapped: %v", err)
	}
	if !strings.Contains(err.Error(), "passes: bad:") {
		t.Errorf("error does not name the pass: %v", err)
	}
}

// TestVerifierCatchesDanglingArc corrupts the arc table mid-pipeline (an
// arc removed from its producer's destination list loses its acknowledge
// path) and checks -verify-each turns it into an immediate error.
func TestVerifierCatchesDanglingArc(t *testing.T) {
	corrupt := Func{PassName: "corrupt", Fn: func(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
		for _, n := range g.Nodes() {
			if len(n.Out) > 0 {
				n.Out = n.Out[:len(n.Out)-1]
				return g, nil
			}
		}
		return g, nil
	}}
	_, err := NewManager(corrupt).Run(diamond(t), &Context{VerifyEach: true})
	if err == nil {
		t.Fatal("verifier missed the dangling arc")
	}
	if !strings.Contains(err.Error(), "passes: after corrupt:") {
		t.Errorf("error does not name the corrupting pass: %v", err)
	}
	// Without verification the corruption sails through — the whole point
	// of -verify-each.
	if _, err := NewManager(corrupt).Run(diamond(t), &Context{}); err != nil {
		t.Errorf("unverified pipeline should not detect it: %v", err)
	}
}

// TestVerifierCatchesUnbalanced checks the §3 equal-path-length property is
// enforced once a pass claims the graph balanced.
func TestVerifierCatchesUnbalanced(t *testing.T) {
	claim := Func{PassName: "claim-balanced", Fn: func(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
		ctx.Balanced = true // lie: the diamond's reconvergent paths differ
		return g, nil
	}}
	_, err := NewManager(claim).Run(diamond(t), &Context{VerifyEach: true})
	if err == nil {
		t.Fatal("verifier accepted unbalanced reconvergent paths")
	}
	if !strings.Contains(err.Error(), "passes: after claim-balanced:") {
		t.Errorf("error does not name the pass: %v", err)
	}
	// A real balancing pass satisfies the same check.
	if _, err := NewManager(Balance{}).Run(diamond(t), &Context{VerifyEach: true}); err != nil {
		t.Errorf("balanced diamond rejected: %v", err)
	}
}

// TestVerifierCatchesUndeclaredCycle checks that a cycle with no arc marked
// Feedback is rejected.
func TestVerifierCatchesUndeclaredCycle(t *testing.T) {
	g := graph.New()
	x := g.Add(graph.OpID, "x")
	y := g.Add(graph.OpID, "y")
	g.Connect(x, y, 0)
	fb := g.Connect(y, x, 0)
	err := g.Verify()
	if err == nil || !strings.Contains(err.Error(), "no feedback arc") {
		t.Fatalf("undeclared cycle not caught: %v", err)
	}
	// Declaring the feedback arc is not enough: the cycle still carries no
	// initial token, so it can never fire.
	fb.Feedback = true
	err = g.Verify()
	if err == nil || !strings.Contains(err.Error(), "no initial token") {
		t.Fatalf("dead cycle not caught: %v", err)
	}
	// An initial token makes it live.
	g.SetInit(fb, value.R(0))
	if err := g.Verify(); err != nil {
		t.Fatalf("seeded cycle rejected: %v", err)
	}
}

func TestRegistryParse(t *testing.T) {
	ps, err := Parse(" dedup, balance-naive ,arm-slack=3 ")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ps))
	for i, p := range ps {
		got[i] = p.Name()
	}
	want := []string{"dedup", "balance-naive", "arm-slack"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Parse = %v, want %v", got, want)
	}
	if ps[2].(ArmSlack).Stages != 3 {
		t.Errorf("arm-slack=3 parsed to %+v", ps[2])
	}
	if empty, err := Parse(""); err != nil || len(empty) != 0 {
		t.Errorf("Parse(\"\") = %v, %v", empty, err)
	}
	for _, bad := range []string{"no-such-pass", "arm-slack=zero", "arm-slack=0", "dedup=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"literal-control", "arm-slack", "dedup", "balance", "balance-naive", "expand-fifos"}
	if got := Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, n := range Names() {
		p, err := Lookup(n)
		if err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
		} else if p.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, p.Name())
		}
	}
}

// TestParseEmptyAndDefaultPipelines pins the two pipelines that name no
// pass: "" is the paper's default (nil, which pipestruct runs as balance)
// and "none" is the empty pipeline (empty but non-nil). It also pins the
// pass lists that replaced the historical strategy booleans, and rejects
// lists that name no pass or combine "none" with passes.
func TestParseEmptyAndDefaultPipelines(t *testing.T) {
	if ps, err := Parse(""); err != nil || ps != nil {
		t.Errorf("Parse(\"\") = %#v, %v; want nil (the default pipeline)", ps, err)
	}
	for _, none := range []string{"none", " none "} {
		if ps, err := Parse(none); err != nil || ps == nil || len(ps) != 0 {
			t.Errorf("Parse(%q) = %#v, %v; want an empty non-nil pipeline", none, ps, err)
		}
	}
	for list, want := range map[string][]string{
		"balance-naive": {"balance-naive"},
		"dedup,balance": {"dedup", "balance"},
		"dedup":         {"dedup"},
	} {
		ps, err := Parse(list)
		if err != nil {
			t.Fatalf("Parse(%q): %v", list, err)
		}
		got := make([]string, len(ps))
		for i, p := range ps {
			got[i] = p.Name()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("Parse(%q) = %v, want %v", list, got, want)
		}
	}
	for _, bad := range []string{",", " ", "dedup,", "dedup,,balance", "none,balance", "balance,none"} {
		if ps, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", bad, ps)
		}
	}
}

// TestAllPassesThroughManager runs every registered pass in canonical order
// over one graph, verifying after each: a finite control generator (for
// literal-control), a data-steered MERGE (for arm-slack), duplicate cells
// (for dedup), reconvergent paths (for balance), and the FIFOs the earlier
// passes insert (for expand-fifos).
func TestAllPassesThroughManager(t *testing.T) {
	g := graph.New()
	src := g.AddSource("in", []value.Value{})
	a1 := g.Add(graph.OpAdd, "a1")
	g.Connect(src, a1, 0)
	g.SetLiteral(a1, 1, value.R(1))
	a2 := g.Add(graph.OpAdd, "a2")
	g.Connect(src, a2, 0)
	g.SetLiteral(a2, 1, value.R(1))
	ctl := g.AddCtl("c", graph.Pattern{Body: []bool{true}, Repeat: 4})
	m := g.Add(graph.OpMerge, "m")
	g.Connect(ctl, m, 0)
	g.Connect(a1, m, 1)
	g.Connect(a2, m, 2)
	g.Connect(m, g.AddSink("out"), 0)
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}

	pl, err := Parse("literal-control,arm-slack,dedup,balance,expand-fifos")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{VerifyEach: true}
	out, err := NewManager(pl...).Run(g, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Stats) != 5 {
		t.Fatalf("stats = %v", ctx.Stats)
	}
	for i, name := range []string{"literal-control", "arm-slack", "dedup", "balance", "expand-fifos"} {
		if ctx.Stats[i].Name != name {
			t.Errorf("stat %d = %s, want %s", i, ctx.Stats[i].Name, name)
		}
	}
	if ctx.Deduped == 0 {
		t.Error("duplicate adds not deduped")
	}
	if ctx.Plan == nil || !ctx.Balanced {
		t.Error("balance pass left no plan")
	}
	for _, n := range out.Nodes() {
		if n.Op == graph.OpCtlGen {
			t.Errorf("control generator %s survived literal-control", n.Name())
		}
		if n.Op == graph.OpFIFO {
			t.Errorf("FIFO %s survived expand-fifos", n.Name())
		}
	}
}
