package mincost

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// route solves g for a single commodity of amount units from s to t.
func route(g *Graph, s, t int, amount int64) (int64, error) {
	supply := make([]int64, g.NumNodes())
	supply[s] += amount
	supply[t] -= amount
	return g.MinCostFlow(supply)
}

func TestMaxFlowSimple(t *testing.T) {
	// s=0, t=3; two disjoint paths of capacity 2 and 3: 5 units route at
	// no cost, 6 do not route at all.
	build := func() (*Graph, int, int) {
		g := New(4, 4)
		a := g.AddEdge(0, 1, 2, 0)
		g.AddEdge(1, 3, 2, 0)
		b := g.AddEdge(0, 2, 3, 0)
		g.AddEdge(2, 3, 3, 0)
		return g, a, b
	}
	g, a, b := build()
	cost, err := route(g, 0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || g.Flow(a)+g.Flow(b) != 5 {
		t.Errorf("cost=%d flow=%d, want 0/5", cost, g.Flow(a)+g.Flow(b))
	}
	g, _, _ = build()
	if _, err := route(g, 0, 3, 6); !errors.Is(err, ErrInfeasible) {
		t.Errorf("6 units over capacity 5: err=%v, want ErrInfeasible", err)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// Two paths s->t: cost 1 (cap 1) and cost 5 (cap 1). Flow of 2 must use
	// both; flow of 1 must use the cheap one.
	build := func() (*Graph, int, int) {
		g := New(4, 4)
		e1 := g.AddEdge(0, 1, 1, 1)
		g.AddEdge(1, 3, 1, 0)
		e2 := g.AddEdge(0, 2, 1, 5)
		g.AddEdge(2, 3, 1, 0)
		return g, e1, e2
	}
	g, e1, e2 := build()
	cost, err := route(g, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 6 {
		t.Errorf("cost=%d, want 6", cost)
	}
	if g.Flow(e1) != 1 || g.Flow(e2) != 1 {
		t.Errorf("edge flows %d,%d, want 1,1", g.Flow(e1), g.Flow(e2))
	}
	g, e1, e2 = build()
	if cost, err := route(g, 0, 3, 1); err != nil || cost != 1 || g.Flow(e1) != 1 || g.Flow(e2) != 0 {
		t.Errorf("one unit: cost=%d err=%v flows %d,%d, want 1 over the cheap path", cost, err, g.Flow(e1), g.Flow(e2))
	}
}

func TestReroutingThroughResidual(t *testing.T) {
	// Classic rerouting instance: the greedy first path 0-1-2-3 must be
	// partially undone to route two units at minimum cost. Edge 2-3 has
	// capacity 1, so the options are 0-1-3 (6) + 0-2-3 (5) = 11 or
	// 0-1-2-3 (3) + 0-2-? (no way on): 11 is the minimum.
	g := New(4, 5)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 4)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(1, 3, 1, 5)
	g.AddEdge(2, 3, 1, 1)
	cost, err := route(g, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 11 {
		t.Errorf("cost=%d, want 11", cost)
	}
}

func TestNegativeCostEdges(t *testing.T) {
	g := New(3, 2)
	g.AddEdge(0, 1, 2, -3)
	g.AddEdge(1, 2, 2, -2)
	cost, err := route(g, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != -10 {
		t.Errorf("cost=%d, want -10", cost)
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	// 1->2->1 costs -1 and has no capacity bound: min-cost flow is
	// unbounded.
	g := New(4, 4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, Inf, -2)
	g.AddEdge(2, 1, Inf, 1)
	g.AddEdge(2, 3, 1, 0)
	if _, err := route(g, 0, 3, 1); !errors.Is(err, ErrNegativeCycle) {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
	if _, err := g.Potentials(); err == nil {
		t.Error("Potentials of an unbounded problem returned no error")
	}
	// With a finite capacity on the cycle the problem is bounded: the unit
	// takes 1->2 at -2 and the cycle fills the 4 units of 1->2 left, at -1
	// each.
	g = New(4, 4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 5, -2)
	g.AddEdge(2, 1, 5, 1)
	g.AddEdge(2, 3, 1, 0)
	if cost, err := route(g, 0, 3, 1); err != nil || cost != -2-4 {
		t.Errorf("finite negative cycle: cost=%d err=%v, want -6", cost, err)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	if _, err := route(g, 0, 3, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unit across disconnected parts: err=%v, want ErrInfeasible", err)
	}
	if cost, err := g.MinCostFlow(make([]int64, 4)); err != nil || cost != 0 {
		t.Errorf("zero supplies: cost=%d err=%v, want 0/nil", cost, err)
	}
	if _, err := g.MinCostFlow([]int64{1, 0, 0, 0}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unbalanced supplies: err=%v, want ErrInfeasible", err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2, 1)
	for i, f := range []func(){
		func() { g.AddEdge(0, 5, 1, 0) },
		func() { g.AddEdge(-1, 1, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
		func() { g.MinCostFlow([]int64{0}) },
		func() { g.AddEdge(0, 1, 1, 0); g.AddEdge(1, 0, 1, 0) }, // past New's count
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

// TestCostRangeRefused: costs whose magnitudes sum past the solver's
// int64 headroom are an error, not a silent overflow.
func TestCostRangeRefused(t *testing.T) {
	for _, c := range []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 / 10} {
		g := New(2, 2)
		g.AddEdge(0, 1, 1, c)
		g.AddEdge(1, 0, 1, c)
		if _, err := g.MinCostFlow(make([]int64, 2)); err == nil || errors.Is(err, ErrInfeasible) || errors.Is(err, ErrNegativeCycle) {
			t.Errorf("costs %d: err=%v, want a range error", c, err)
		}
	}
}

// TestPotentialsReducedCosts verifies the dual property package balance
// relies on: after solving, every residual edge satisfies
// cost + h[u] − h[v] ≥ 0, and no h exceeds 0.
func TestPotentialsReducedCosts(t *testing.T) {
	g := New(5, 6)
	g.AddEdge(0, 1, 3, -1)
	g.AddEdge(1, 2, 2, -1)
	g.AddEdge(0, 2, 1, -1)
	g.AddEdge(2, 3, 4, -2)
	g.AddEdge(1, 3, 1, 0)
	g.AddEdge(3, 4, 3, 0)
	if _, err := route(g, 0, 4, 3); err != nil {
		t.Fatal(err)
	}
	h, err := g.Potentials()
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.m; e++ {
		u, v, c := g.src[e], g.dst[e], g.cost[e]
		if g.flow[e] < g.cap[e] && c+h[u]-h[v] < 0 {
			t.Errorf("residual edge %d->%d violates reduced cost: %d + %d - %d", u, v, c, h[u], h[v])
		}
		if g.flow[e] > 0 && -c+h[v]-h[u] < 0 {
			t.Errorf("residual edge %d->%d violates reduced cost: %d + %d - %d", v, u, -c, h[v], h[u])
		}
	}
	for v, x := range h {
		if x > 0 {
			t.Errorf("h[%d] = %d > 0", v, x)
		}
	}
}

// Property: the flow from s through a complete bipartite middle layer to t
// routes exactly min(total out-capacity of s, total in-capacity of t)
// units, every one paying exactly 1.
func TestQuickBipartiteFlow(t *testing.T) {
	f := func(capsA, capsB []uint8) bool {
		if len(capsA) == 0 || len(capsB) == 0 || len(capsA) > 6 || len(capsB) > 6 {
			return true
		}
		n := 2 + len(capsA) + len(capsB)
		build := func() *Graph {
			g := New(n, len(capsA)+len(capsB)+len(capsA)*len(capsB))
			for i, c := range capsA {
				g.AddEdge(0, 2+i, int64(c), 0)
			}
			for j, c := range capsB {
				g.AddEdge(2+len(capsA)+j, 1, int64(c), 1)
			}
			for i := range capsA {
				for j := range capsB {
					g.AddEdge(2+i, 2+len(capsA)+j, Inf, 0)
				}
			}
			return g
		}
		var sumA, sumB int64
		for _, c := range capsA {
			sumA += int64(c)
		}
		for _, c := range capsB {
			sumB += int64(c)
		}
		want := min(sumA, sumB)
		cost, err := route(build(), 0, 1, want)
		if err != nil || cost != want {
			return false
		}
		_, err = route(build(), 0, 1, want+1)
		return errors.Is(err, ErrInfeasible)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ssp is the successive-shortest-path solver this package used before the
// network simplex, kept as a reference oracle: a super source and sink
// route the supplies, and every augmentation follows a Bellman-Ford
// shortest path. edges[i] and edges[i^1] are a forward edge and its
// residual reverse.
type ssp struct {
	n     int
	edges []sspEdge
	adj   [][]int
}

type sspEdge struct {
	to        int
	cap, cost int64
}

func newSSP(n int) *ssp { return &ssp{n: n, adj: make([][]int, n)} }

func (g *ssp) addEdge(u, v int, capacity, cost int64) int {
	id := len(g.edges)
	g.edges = append(g.edges, sspEdge{v, capacity, cost}, sspEdge{u, 0, -cost})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id+1)
	return id
}

const sspInf = Inf / 4

// bellmanFord returns shortest residual distances from s and each node's
// incoming path edge, or ErrNegativeCycle.
func (g *ssp) bellmanFord(s int) ([]int64, []int, error) {
	dist := make([]int64, g.n)
	prev := make([]int, g.n)
	for i := range dist {
		dist[i], prev[i] = sspInf, -1
	}
	dist[s] = 0
	for iter := 0; ; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if dist[u] >= sspInf {
				continue
			}
			for _, id := range g.adj[u] {
				e := g.edges[id]
				if e.cap > 0 && dist[u]+e.cost < dist[e.to] {
					dist[e.to], prev[e.to], changed = dist[u]+e.cost, id, true
				}
			}
		}
		if !changed {
			return dist, prev, nil
		}
		if iter >= g.n {
			return nil, nil, ErrNegativeCycle
		}
	}
}

func (g *ssp) minCostMaxFlow(s, t int) (flow, cost int64, err error) {
	for {
		dist, prev, err := g.bellmanFord(s)
		if err != nil {
			return 0, 0, err
		}
		if dist[t] >= sspInf {
			return flow, cost, nil
		}
		push := int64(sspInf)
		for v := t; v != s; v = g.edges[prev[v]^1].to {
			push = min(push, g.edges[prev[v]].cap)
		}
		for v := t; v != s; v = g.edges[prev[v]^1].to {
			g.edges[prev[v]].cap -= push
			g.edges[prev[v]^1].cap += push
		}
		flow += push
		cost += push * dist[t]
	}
}

// potentials is Potentials' definition computed the old way: Bellman-Ford
// from a virtual root over the residual edges among nodes 0..n-1.
func (g *ssp) potentials(n int) []int64 {
	dist := make([]int64, n)
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			for _, id := range g.adj[u] {
				e := g.edges[id]
				if e.to < n && e.cap > 0 && dist[u]+e.cost < dist[e.to] {
					dist[e.to], changed = dist[u]+e.cost, true
				}
			}
		}
	}
	return dist
}

type arc struct {
	u, v      int
	cap, cost int64
}

// oracle solves the supply problem with the reference solver, giving
// uncapacitated arcs a capacity no optimal flow reaches.
func oracle(n int, arcs []arc, supply []int64) (int64, []int64, error) {
	big := int64(1)
	for _, b := range supply {
		big += max(b, 0)
	}
	for _, a := range arcs {
		if a.cap != Inf {
			big += a.cap
		}
	}
	g := newSSP(n + 2)
	for _, a := range arcs {
		c := a.cap
		if c == Inf {
			c = big
		}
		g.addEdge(a.u, a.v, c, a.cost)
	}
	s, t := n, n+1
	var want int64
	for v, b := range supply {
		if b > 0 {
			g.addEdge(s, v, b, 0)
			want += b
		} else if b < 0 {
			g.addEdge(v, t, -b, 0)
		}
	}
	flow, cost, err := g.minCostMaxFlow(s, t)
	if err != nil {
		return 0, nil, err
	}
	if flow != want {
		return 0, nil, ErrInfeasible
	}
	return cost, g.potentials(n), nil
}

// randomNetwork draws a network without negative-cost cycles: costs are
// differences of random node prices plus a non-negative slack, so every
// cycle costs its total slack. Some arcs come as zero-slack reverse pairs
// like balance's rigid constraints, and capacities mix finite and Inf.
// Supplies come from a random feasible flow, or (now and then) at random.
func randomNetwork(rng *rand.Rand) (int, []arc, []int64) {
	n := 2 + rng.Intn(12)
	price := make([]int64, n)
	for v := range price {
		price[v] = int64(rng.Intn(21) - 10)
	}
	capOf := func() int64 {
		if rng.Intn(3) == 0 {
			return Inf
		}
		return int64(1 + rng.Intn(5))
	}
	var arcs []arc
	for k := rng.Intn(3 * n); k >= 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		base := price[v] - price[u]
		if rng.Intn(5) == 0 {
			arcs = append(arcs, arc{u, v, Inf, base}, arc{v, u, Inf, -base})
			continue
		}
		slack := int64(0)
		if rng.Intn(3) > 0 {
			slack = int64(rng.Intn(6))
		}
		arcs = append(arcs, arc{u, v, capOf(), base + slack})
	}
	supply := make([]int64, n)
	if rng.Intn(6) == 0 {
		for v := 0; v+1 < n; v++ {
			supply[v] = int64(rng.Intn(7) - 3)
			supply[n-1] -= supply[v]
		}
		return n, arcs, supply
	}
	for _, a := range arcs {
		if rng.Intn(2) == 0 {
			continue
		}
		f := int64(rng.Intn(4))
		if a.cap != Inf {
			f = min(f, a.cap)
		}
		supply[a.u] += f
		supply[a.v] -= f
	}
	return n, arcs, supply
}

// TestSimplexMatchesOracle: on random networks the simplex's cost, its
// feasibility verdict and its potentials, element for element, equal the
// successive-shortest-path oracle's.
func TestSimplexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	infeasible := 0
	for trial := 0; trial < 3000; trial++ {
		n, arcs, supply := randomNetwork(rng)
		wantCost, wantH, wantErr := oracle(n, arcs, supply)
		g := New(n, len(arcs))
		for _, a := range arcs {
			g.AddEdge(a.u, a.v, a.cap, a.cost)
		}
		cost, err := g.MinCostFlow(supply)
		if wantErr != nil {
			infeasible++
			if !errors.Is(err, wantErr) {
				t.Fatalf("trial %d: err=%v, oracle %v\narcs %v supply %v", trial, err, wantErr, arcs, supply)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v (oracle cost %d)\narcs %v supply %v", trial, err, wantCost, arcs, supply)
		}
		if cost != wantCost {
			t.Fatalf("trial %d: cost %d, oracle %d\narcs %v supply %v", trial, cost, wantCost, arcs, supply)
		}
		h, err := g.Potentials()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h, wantH) {
			t.Fatalf("trial %d: potentials %v, oracle %v\narcs %v supply %v", trial, h, wantH, arcs, supply)
		}
		// The flow itself must be feasible and cost what was reported.
		net := make([]int64, n)
		var total int64
		for e, a := range arcs {
			f := g.Flow(e)
			if f < 0 || (a.cap != Inf && f > a.cap) {
				t.Fatalf("trial %d: edge %d carries %d of capacity %d", trial, e, f, a.cap)
			}
			net[a.u] += f
			net[a.v] -= f
			total += f * a.cost
		}
		if !reflect.DeepEqual(net, supply) || total != cost {
			t.Fatalf("trial %d: flow nets %v for supplies %v, costs %d for reported %d", trial, net, supply, total, cost)
		}
	}
	if infeasible == 0 {
		t.Error("no infeasible instance drawn: the ErrInfeasible path went unchecked")
	}
}

// TestUnboundedRigidPair: two zero-slack reverse pairs of different span
// between the same nodes form an unbounded negative cycle, whatever the
// supplies.
func TestUnboundedRigidPair(t *testing.T) {
	g := New(3, 6)
	g.AddEdge(0, 1, Inf, -2)
	g.AddEdge(1, 0, Inf, 2)
	g.AddEdge(0, 2, Inf, -1)
	g.AddEdge(2, 0, Inf, 1)
	g.AddEdge(2, 1, Inf, -2)
	g.AddEdge(1, 2, Inf, 2)
	if _, err := g.MinCostFlow(make([]int64, 3)); !errors.Is(err, ErrNegativeCycle) {
		t.Errorf("err=%v, want ErrNegativeCycle", err)
	}
}

// errClass names the error kinds a solve can end in.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNegativeCycle):
		return "negative cycle"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	default:
		return err.Error()
	}
}

// TestResolveMatchesColdSolve: on TestSimplexMatchesOracle's random
// networks, re-costed a few times over, every warm Resolve from the last
// solve's tree agrees with a cold MinCostFlow of the re-costed network in
// cost, error class and potentials, and its flow is feasible and costs
// what it reports.
func TestResolveMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	classes := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		n, arcs, supply := randomNetwork(rng)
		warm := New(n, len(arcs))
		for _, a := range arcs {
			warm.AddEdge(a.u, a.v, a.cap, a.cost)
		}
		warm.MinCostFlow(supply)
		for round := 0; round < 3; round++ {
			// Re-cost about a third of the arcs: mostly small moves, now
			// and then one large enough to open a negative cycle.
			for e := range arcs {
				switch rng.Intn(6) {
				case 0:
					arcs[e].cost += int64(rng.Intn(7) - 3)
				case 1:
					arcs[e].cost = int64(rng.Intn(41) - 20)
				default:
					continue
				}
				warm.SetCost(e, arcs[e].cost)
			}
			cold := New(n, len(arcs))
			for _, a := range arcs {
				cold.AddEdge(a.u, a.v, a.cap, a.cost)
			}
			wantCost, wantErr := cold.MinCostFlow(supply)
			cost, err := warm.Resolve()
			classes[errClass(wantErr)]++
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("trial %d round %d: warm %v, cold %v\narcs %v supply %v", trial, round, err, wantErr, arcs, supply)
			}
			if err != nil {
				continue
			}
			if cost != wantCost {
				t.Fatalf("trial %d round %d: warm cost %d, cold %d\narcs %v supply %v", trial, round, cost, wantCost, arcs, supply)
			}
			h, _ := warm.Potentials()
			wantH, _ := cold.Potentials()
			if !reflect.DeepEqual(h, wantH) {
				t.Fatalf("trial %d round %d: warm potentials %v, cold %v", trial, round, h, wantH)
			}
			net := make([]int64, n)
			var total int64
			for e, a := range arcs {
				f := warm.Flow(e)
				if f < 0 || (a.cap != Inf && f > a.cap) {
					t.Fatalf("trial %d round %d: edge %d carries %d of capacity %d", trial, round, e, f, a.cap)
				}
				net[a.u] += f
				net[a.v] -= f
				total += f * a.cost
			}
			if !reflect.DeepEqual(net, supply) || total != cost {
				t.Fatalf("trial %d round %d: flow nets %v for supplies %v, costs %d for reported %d", trial, round, net, supply, total, cost)
			}
		}
	}
	for _, c := range []string{"ok", "negative cycle", "infeasible"} {
		if classes[c] == 0 {
			t.Errorf("no re-solve ended %q: that path went unchecked (%v)", c, classes)
		}
	}
}

// TestResolveNeedsASolve: Resolve has no tree to start from before a
// solve, nor after an edge is added.
func TestResolveNeedsASolve(t *testing.T) {
	g := New(2, 2)
	if _, err := g.Resolve(); err == nil {
		t.Error("Resolve before any solve succeeded")
	}
	g.AddEdge(0, 1, 1, 3)
	if _, err := route(g, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g.SetCost(0, 5)
	if cost, err := g.Resolve(); err != nil || cost != 5 {
		t.Errorf("Resolve after SetCost = %d, %v; want 5", cost, err)
	}
	g.AddEdge(0, 1, 1, 1)
	if _, err := g.Resolve(); err == nil {
		t.Error("Resolve after AddEdge succeeded")
	}
}
