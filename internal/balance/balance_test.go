package balance

import (
	"errors"
	"math/rand"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

func TestNaiveSimpleChain(t *testing.T) {
	cons := []Constraint{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	pi, err := Naive(3, cons)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(3, cons, pi); err != nil {
		t.Error(err)
	}
	if TotalSlack(cons, pi) != 0 {
		t.Errorf("chain slack = %d, want 0", TotalSlack(cons, pi))
	}
}

// An instance where ASAP leveling wastes a buffer stage that optimal
// placement saves. Node a fans out to t both directly and through x, and a
// parallel 4-stage chain pins t at level 4:
//
//	s -> a -> x -> t,  a -> t,  s -> b -> c -> d -> t
//
// ASAP puts a at level 1 (total slack 3); floating a to level 2 shares the
// slack between a's two output arcs (total slack 2).
func TestSolveBeatsNaive(t *testing.T) {
	// nodes: s=0 a=1 x=2 b=3 c=4 d=5 t=6
	cons := []Constraint{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 1},
		{U: 2, V: 6, W: 1},
		{U: 1, V: 6, W: 1},
		{U: 0, V: 3, W: 1},
		{U: 3, V: 4, W: 1},
		{U: 4, V: 5, W: 1},
		{U: 5, V: 6, W: 1},
	}
	naive, err := Naive(7, cons)
	if err != nil {
		t.Fatal(err)
	}
	if TotalSlack(cons, naive) != 3 {
		t.Errorf("naive slack = %d, want 3", TotalSlack(cons, naive))
	}
	opt, err := Solve(7, cons)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(7, cons, opt); err != nil {
		t.Fatal(err)
	}
	if TotalSlack(cons, opt) != 2 {
		t.Errorf("optimal slack = %d, want 2 (a floats to level 2)", TotalSlack(cons, opt))
	}
}

func TestSolveRigid(t *testing.T) {
	// A rigid interior edge pins the relative levels.
	cons := []Constraint{
		{U: 0, V: 1, W: 3, Rigid: true},
		{U: 0, V: 2, W: 1},
		{U: 2, V: 1, W: 1},
	}
	pi, err := Solve(3, cons)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(3, cons, pi); err != nil {
		t.Fatal(err)
	}
	if pi[1]-pi[0] != 3 {
		t.Errorf("rigid span = %d, want 3", pi[1]-pi[0])
	}
	// slack = (π2-π0-1) + (π1-π2-1) = 3-2 = 1 regardless of π2's position.
	if TotalSlack(cons, pi) != 1 {
		t.Errorf("slack = %d, want 1", TotalSlack(cons, pi))
	}
}

func TestInfeasibleCycle(t *testing.T) {
	cons := []Constraint{{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1}}
	if _, err := Naive(2, cons); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Naive on a positive cycle: err=%v, want ErrInfeasible", err)
	}
	if _, err := Solve(2, cons); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve on a positive cycle: err=%v, want ErrInfeasible", err)
	}
}

// TestInfeasibleRigidSpans: two rigid paths of different span between the
// same cells (0→1→2 spans 3, 0→3→2 spans 2) admit no levels, with or
// without non-rigid constraints around them.
func TestInfeasibleRigidSpans(t *testing.T) {
	rigid := []Constraint{
		{U: 0, V: 1, W: 2, Rigid: true},
		{U: 1, V: 2, W: 1, Rigid: true},
		{U: 0, V: 3, W: 1, Rigid: true},
		{U: 3, V: 2, W: 1, Rigid: true},
	}
	mixed := append([]Constraint{{U: 4, V: 0, W: 1}, {U: 2, V: 5, W: 1}, {U: 4, V: 5, W: 1}}, rigid...)
	for _, tc := range []struct {
		n    int
		cons []Constraint
	}{{4, rigid}, {6, mixed}} {
		if _, err := Solve(tc.n, tc.cons); !errors.Is(err, ErrInfeasible) {
			t.Errorf("Solve on %d constraints: err=%v, want ErrInfeasible", len(tc.cons), err)
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	if pi, err := Solve(0, nil); err != nil || pi != nil {
		t.Errorf("Solve(0) = %v, %v", pi, err)
	}
	pi, err := Solve(3, nil)
	if err != nil || len(pi) != 3 {
		t.Errorf("Solve(3, nil) = %v, %v", pi, err)
	}
}

func TestCheckErrors(t *testing.T) {
	cons := []Constraint{{U: 0, V: 1, W: 2}}
	if err := Check(2, cons, []int64{0}); err == nil {
		t.Error("short level slice accepted")
	}
	if err := Check(2, cons, []int64{0, 1}); err == nil {
		t.Error("violated constraint accepted")
	}
	rig := []Constraint{{U: 0, V: 1, W: 2, Rigid: true}}
	if err := Check(2, rig, []int64{0, 3}); err == nil {
		t.Error("violated rigid constraint accepted")
	}
}

// Property: on random DAGs the optimal slack never exceeds the naive slack
// and both satisfy the constraints.
func TestQuickOptimalNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(15)
		var cons []Constraint
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					cons = append(cons, Constraint{U: u, V: v, W: int64(1 + rng.Intn(3))})
				}
			}
		}
		naive, err := Naive(n, cons)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		opt, err := Solve(n, cons)
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		if err := Check(n, cons, naive); err != nil {
			t.Fatalf("trial %d: naive infeasible: %v", trial, err)
		}
		if err := Check(n, cons, opt); err != nil {
			t.Fatalf("trial %d: optimal infeasible: %v", trial, err)
		}
		if TotalSlack(cons, opt) > TotalSlack(cons, naive) {
			t.Errorf("trial %d: optimal slack %d > naive %d", trial,
				TotalSlack(cons, opt), TotalSlack(cons, naive))
		}
	}
}

// buildDiamond builds the unbalanced reconvergent graph used by the exec
// tests: src fans out to a 1-cell path and a (depth)-cell path that rejoin.
func buildDiamond(depth, n int) *graph.Graph {
	g := graph.New()
	src := g.AddSource("in", value.Reals(make([]float64, n)))
	add := g.Add(graph.OpAdd, "join")
	sink := g.AddSink("out")
	prev := src
	for i := 0; i < depth; i++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, add, 0)
	g.Connect(src, add, 1)
	g.Connect(add, sink, 0)
	return g
}

func TestBalanceRestoresFullRate(t *testing.T) {
	for _, depth := range []int{2, 3, 5} {
		g := buildDiamond(depth, 64)
		plan, err := Balance(g)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if plan.Total != depth {
			t.Errorf("depth %d: inserted %d buffer stages, want %d", depth, plan.Total, depth)
		}
		res, err := exec.Run(g, exec.Options{})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if ii := res.II("out"); ii != 2 {
			t.Errorf("depth %d: II after balancing = %v, want 2", depth, ii)
		}
	}
}

func TestCheckBalanced(t *testing.T) {
	g := buildDiamond(3, 8)
	if err := CheckBalanced(g); err == nil {
		t.Error("unbalanced diamond passed CheckBalanced")
	}
	if _, err := Balance(g); err != nil {
		t.Fatal(err)
	}
	if err := CheckBalanced(g); err != nil {
		t.Errorf("balanced graph failed CheckBalanced: %v", err)
	}
}

func TestPlanGraphExistingFIFOCounts(t *testing.T) {
	// A pre-existing FIFO(3) on the short path of a depth-3 diamond makes
	// the graph already balanced: the plan must be empty.
	g := graph.New()
	src := g.AddSource("in", value.Reals(make([]float64, 8)))
	add := g.Add(graph.OpAdd, "join")
	sink := g.AddSink("out")
	prev := src
	for i := 0; i < 3; i++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, add, 0)
	f := g.AddFIFO("skew", 3)
	g.Connect(src, f, 0)
	g.Connect(f, add, 1)
	g.Connect(add, sink, 0)

	plan, err := PlanGraph(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 0 {
		t.Errorf("already-balanced graph got %d buffer stages", plan.Total)
	}
	if err := CheckBalanced(g); err != nil {
		t.Errorf("CheckBalanced: %v", err)
	}
}

func TestPlanGraphFeedbackExempt(t *testing.T) {
	// A 3-cell loop (feedback arc marked) plus an acyclic tail: planning
	// must succeed and must not buffer the loop arcs.
	g := graph.New()
	gate := g.Add(graph.OpTGate, "gate")
	ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}})
	g.Connect(ctl, gate, 0)
	a := g.Add(graph.OpID, "a")
	b := g.Add(graph.OpID, "b")
	g.Connect(gate, a, 0)
	g.Connect(a, b, 0)
	back := g.Connect(b, gate, 1)
	back.Feedback = true
	g.SetInit(back, value.R(0))
	sink := g.AddSink("out")
	g.Connect(gate, sink, 0)

	plan, err := PlanGraph(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total != 0 {
		t.Errorf("loop got %d buffer stages, want 0", plan.Total)
	}
}

func TestPlanGraphRejectsUnmarkedCycle(t *testing.T) {
	g := graph.New()
	a := g.Add(graph.OpID, "a")
	b := g.Add(graph.OpID, "b")
	g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	if _, err := PlanGraph(g, true); err == nil {
		t.Error("unmarked cycle accepted")
	}
	if _, err := PlanGraph(g, false); err == nil {
		t.Error("unmarked cycle accepted by naive plan")
	}
}

// Property: on random layered DAG instruction graphs, Balance yields a
// graph that passes CheckBalanced and simulates at II = 2, with optimal
// buffer count ≤ naive buffer count.
func TestQuickBalanceRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g, sinkLabel := randomLayeredGraph(rng, 16)
		naivePlan, err := PlanGraph(g, false)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}
		optPlan, err := PlanGraph(g, true)
		if err != nil {
			t.Fatalf("trial %d: optimal: %v", trial, err)
		}
		if optPlan.Total > naivePlan.Total {
			t.Errorf("trial %d: optimal %d > naive %d", trial, optPlan.Total, naivePlan.Total)
		}
		Apply(g, optPlan)
		if err := CheckBalanced(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := exec.Run(g, exec.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ii := res.II(sinkLabel); ii != 2 {
			t.Errorf("trial %d: II = %v, want 2", trial, ii)
		}
	}
}

// randomLayeredGraph builds a random acyclic arithmetic graph: a few
// sources, interior ADD/MUL/ID cells each fed from earlier cells, and a
// final MAX-reduction into one sink.
func randomLayeredGraph(rng *rand.Rand, interior int) (*graph.Graph, string) {
	g := graph.New()
	n := 48
	var pool []*graph.Node
	for i := 0; i < 2+rng.Intn(3); i++ {
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		pool = append(pool, g.AddSource("src", value.Reals(vals)))
	}
	for i := 0; i < interior; i++ {
		var nd *graph.Node
		switch rng.Intn(3) {
		case 0:
			nd = g.Add(graph.OpAdd, "")
			g.Connect(pool[rng.Intn(len(pool))], nd, 0)
			g.Connect(pool[rng.Intn(len(pool))], nd, 1)
		case 1:
			nd = g.Add(graph.OpMul, "")
			g.Connect(pool[rng.Intn(len(pool))], nd, 0)
			g.SetLiteral(nd, 1, value.R(0.5))
		default:
			nd = g.Add(graph.OpID, "")
			g.Connect(pool[rng.Intn(len(pool))], nd, 0)
		}
		pool = append(pool, nd)
	}
	// Reduce every cell with no consumer yet into a MAX tree.
	var open []*graph.Node
	for _, nd := range g.Nodes() {
		if nd.Op.HasOut() && len(nd.Out) == 0 {
			open = append(open, nd)
		}
	}
	for len(open) > 1 {
		m := g.Add(graph.OpMax, "")
		g.Connect(open[0], m, 0)
		g.Connect(open[1], m, 1)
		open = append(open[2:], m)
	}
	sink := g.AddSink("out")
	g.Connect(open[0], sink, 0)
	return g, "out"
}

// TestQuickSolveIsOptimal cross-checks the min-cost-flow balancer against
// brute force on small random systems: no feasible integer assignment has
// less total slack than Solve's.
func TestQuickSolveIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(3) // up to 5 nodes
		var cons []Constraint
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					cons = append(cons, Constraint{U: u, V: v, W: 1})
				}
			}
		}
		opt, err := Solve(n, cons)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := TotalSlack(cons, opt)

		// Brute force: some optimum has every level in [0, n−1] (unit
		// weights: the longest chain has at most n cells).
		hi := n - 1
		best := int64(1 << 40)
		pi := make([]int64, n)
		var enum func(k int)
		enum = func(k int) {
			if k == n {
				if Check(n, cons, pi) == nil {
					if s := TotalSlack(cons, pi); s < best {
						best = s
					}
				}
				return
			}
			for v := 0; v <= hi; v++ {
				pi[k] = int64(v)
				enum(k + 1)
			}
		}
		enum(0)
		if got != best {
			t.Errorf("trial %d (n=%d, %d cons): Solve slack %d, brute force %d",
				trial, n, len(cons), got, best)
		}
	}
}
