package mincost_test

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"staticpipe/internal/balance"
	"staticpipe/internal/core"
	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/mincost"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
)

// arc and network describe one min-cost flow problem, built identically
// on the solver and on the reference copy of it (reference_test.go).
type arc struct {
	u, v      int
	cap, cost int64
}

type network struct {
	n      int
	arcs   []arc
	supply []int64
}

func (nw network) build() (*mincost.Graph, *Graph) {
	got, want := mincost.New(nw.n, len(nw.arcs)), New(nw.n)
	for _, a := range nw.arcs {
		got.AddEdge(a.u, a.v, a.cap, a.cost)
		want.AddEdge(a.u, a.v, a.cap, a.cost)
	}
	return got, want
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// errClass names the error kinds a solve can end in.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, mincost.ErrNegativeCycle):
		return "negative cycle"
	case errors.Is(err, mincost.ErrInfeasible):
		return "infeasible"
	default:
		return "other"
	}
}

// same reports how the solver's last solve differs from the reference's,
// or "" when they agree: the error text, the cost, every edge's flow and
// the potentials (or the refusal to give them).
func same(got *mincost.Graph, want *Graph, m int, gotCost, wantCost int64, gotErr, wantErr error) string {
	if errText(gotErr) != errText(wantErr) {
		return fmt.Sprintf("error %q, reference %q", errText(gotErr), errText(wantErr))
	}
	if gotCost != wantCost {
		return fmt.Sprintf("cost %d, reference %d", gotCost, wantCost)
	}
	for e := 0; e < m; e++ {
		if f, w := got.Flow(e), want.Flow(e); f != w {
			return fmt.Sprintf("edge %d carries %d, reference %d", e, f, w)
		}
	}
	h, herr := got.Potentials()
	wh, wherr := want.Potentials()
	if errText(herr) != errText(wherr) || !reflect.DeepEqual(h, wh) {
		return fmt.Sprintf("potentials %v (%v), reference %v (%v)", h, herr, wh, wherr)
	}
	return ""
}

// randomNetwork draws a small network: random arcs (self-loops among
// them) with finite or unbounded capacities and costs that may close
// negative cycles, and supplies that are routable, random, or zero.
func randomNetwork(rng *rand.Rand) network {
	n := 1 + rng.Intn(10)
	nw := network{n: n, supply: make([]int64, n)}
	for k := rng.Intn(3*n + 1); k > 0; k-- {
		c := int64(math.MaxInt64)
		if rng.Intn(3) > 0 {
			c = int64(rng.Intn(5))
		}
		nw.arcs = append(nw.arcs, arc{rng.Intn(n), rng.Intn(n), c, int64(rng.Intn(15) - 4)})
	}
	switch rng.Intn(5) {
	case 0: // random, often unroutable
		for v := 0; v+1 < n; v++ {
			nw.supply[v] = int64(rng.Intn(7) - 3)
			nw.supply[n-1] -= nw.supply[v]
		}
	case 1: // zero
	default: // a feasible flow's divergence
		for _, a := range nw.arcs {
			if f := min(int64(rng.Intn(4)), a.cap); rng.Intn(2) == 0 {
				nw.supply[a.u] += f
				nw.supply[a.v] -= f
			}
		}
	}
	return nw
}

// recost moves about a third of the arcs' costs on both solvers: mostly
// small steps, now and then far enough to open a negative cycle.
func recost(rng *rand.Rand, nw network, got *mincost.Graph, want *Graph) {
	for e := range nw.arcs {
		switch rng.Intn(6) {
		case 0:
			nw.arcs[e].cost += int64(rng.Intn(7) - 3)
		case 1:
			nw.arcs[e].cost = int64(rng.Intn(41) - 20)
		default:
			continue
		}
		got.SetCost(e, nw.arcs[e].cost)
		want.SetCost(e, nw.arcs[e].cost)
	}
}

// TestSolverMatchesReference: on random networks, each solved cold and
// then re-costed and re-solved from the last tree three times, the solver
// and its reference agree on every flow, potential, cost and error.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	classes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		nw := randomNetwork(rng)
		got, want := nw.build()
		c, err := got.MinCostFlow(nw.supply)
		wc, werr := want.MinCostFlow(nw.supply)
		classes["solve "+errClass(err)]++
		if d := same(got, want, len(nw.arcs), c, wc, err, werr); d != "" {
			t.Fatalf("trial %d: %s\nnetwork %+v", trial, d, nw)
		}
		for round := 0; round < 3; round++ {
			recost(rng, nw, got, want)
			c, err := got.Resolve()
			wc, werr := want.Resolve()
			classes["resolve "+errClass(err)]++
			if d := same(got, want, len(nw.arcs), c, wc, err, werr); d != "" {
				t.Fatalf("trial %d round %d: %s\nnetwork %+v", trial, round, d, nw)
			}
		}
	}
	for _, op := range []string{"solve", "resolve"} {
		for _, c := range []string{"ok", "negative cycle", "infeasible"} {
			if classes[op+" "+c] == 0 {
				t.Errorf("no %s ended %q: that path went unchecked (%v)", op, c, classes)
			}
		}
	}
}

// genProgram is a random chain of blocks over 32 elements: foralls whose
// bodies mix stencils of the input, earlier blocks and conditionals, and
// for-iter recurrences over two earlier arrays.
func genProgram(rng *rand.Rand, blocks int) string {
	var b strings.Builder
	b.WriteString("param m = 32;\ninput A : array[real] [0, m+1];\ninput W : array[real] [0, m+1];\n")
	avail := []string{"A", "W"}
	pick := func() string { return avail[rng.Intn(len(avail))] }
	term := func() string {
		switch rng.Intn(4) {
		case 0:
			return "A[i" + []string{"-1", "", "+1"}[rng.Intn(3)] + "]"
		case 1:
			return fmt.Sprintf("%.2f", rng.Float64())
		default:
			return pick() + "[i]"
		}
	}
	for k := 0; k < blocks; k++ {
		name := fmt.Sprintf("B%d", k)
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, `%s : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := 0.5*%s[i]*T[i-1] + %s[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
`, name, pick(), pick())
		case 1:
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct if %s > 0. then %s * %s else %s endif\n  endall;\n",
				name, term(), term(), term(), term())
		default:
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct %s %s (%s + %s)\n  endall;\n",
				name, term(), []string{"+", "-", "*"}[rng.Intn(3)], term(), term())
		}
		avail = append(avail, name)
	}
	fmt.Fprintf(&b, "output B%d;\n", blocks-1)
	return b.String()
}

// realPrograms are the paper's programs and 24 generated ones.
func realPrograms() map[string]string {
	srcs := map[string]string{}
	for _, p := range []progs.Program{progs.Fig2(64), progs.Fig4(64), progs.Fig5(64),
		progs.Example1(64), progs.Example2(64), progs.Fig3(64), progs.Weather(64)} {
		srcs[p.Name] = p.Source
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 24; k++ {
		srcs[fmt.Sprintf("gen%02d", k)] = genProgram(rng, 2+rng.Intn(10))
	}
	return srcs
}

// balancingNetwork is the flow network balance.Solve builds for g: one
// level constraint per non-feedback arc, weighted as balance's arcWeight
// weights it, each an uncapacitated arc at cost −W, plus the reverse arc
// of a rigid one; a non-rigid constraint moves one unit of supply.
func balancingNetwork(g *graph.Graph) network {
	nw := network{n: g.NumNodes(), supply: make([]int64, g.NumNodes())}
	for _, a := range g.Arcs() {
		if a.Feedback {
			continue
		}
		w := int64(1)
		if from := g.Node(a.From); from.Op == graph.OpFIFO {
			w = int64(from.Cap)
		}
		w += 2*int64(a.Skew) - 2*int64(a.Marking)
		u, v := int(a.From), int(a.To)
		nw.arcs = append(nw.arcs, arc{u, v, mincost.Inf, -w})
		if a.Rigid {
			nw.arcs = append(nw.arcs, arc{v, u, mincost.Inf, w})
		} else {
			nw.supply[u]++
			nw.supply[v]--
		}
	}
	return nw
}

// assignment replays place.PlanTable's refinement rounds on a lowered
// graph with pes PEs, solving every round's assignment network on the
// solver and on the reference in step and reporting the first difference.
// It returns the placement the rounds reach, which the caller holds to
// PlanTable's own. The arc weights, the seed and the acceptance rule are
// place.go's (weightArcs, seed, plan), restated here.
func assignment(tab *graph.Table, pes int) (*place.Placement, int, string) {
	const critBoost, feedbackBoost, rounds = 8, 4, 8
	pl := &place.Placement{PE: make([]int, len(tab.Cells))}
	var compute []int
	idx := make([]int, len(tab.Cells))
	for id, c := range tab.Cells {
		pl.PE[id], idx[id] = -1, -1
		if c.Op != graph.OpSource && c.Op != graph.OpSink {
			idx[id] = len(compute)
			compute = append(compute, id)
		}
	}
	nc := len(compute)
	onCrit := make([]bool, len(tab.Cells))
	if _, crit, err := mcm.Critical(tab); err == nil {
		for _, id := range crit {
			onCrit[id] = true
		}
	}
	type edge struct {
		u, v int
		w    int64
	}
	merged := map[[2]int]int64{}
	attrs := tab.Attrs
	for aid, a := range tab.Arcs {
		feedback := false
		if len(attrs) > 0 && int(attrs[0].Arc) == aid {
			feedback, attrs = attrs[0].Feedback, attrs[1:]
		}
		u, v := idx[a.From], idx[a.To]
		if u < 0 || v < 0 || u == v {
			continue
		}
		w := int64(2)
		if tab.Cells[a.From].Op.IsArith() {
			w = 1
		}
		if feedback {
			w *= feedbackBoost
		}
		if onCrit[a.From] && onCrit[a.To] {
			w *= critBoost
		}
		merged[[2]int{min(u, v), max(u, v)}] += w
	}
	var edges []edge
	for k, w := range merged {
		edges = append(edges, edge{k[0], k[1], w})
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v)) })
	adj := make([][]edge, nc)
	incident := make([]int64, nc)
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], e)
		adj[e.v] = append(adj[e.v], edge{e.v, e.u, e.w})
		incident[e.u] += e.w
		incident[e.v] += e.w
	}
	cutCost := func(pe []int) (c int64) {
		for _, e := range edges {
			if pe[e.u] != pe[e.v] {
				c += e.w
			}
		}
		return c
	}
	// Seed: heaviest-edge-first DFS preorder, cut into blocks of cap.
	cap := (nc + pes - 1) / pes
	var order []int
	seen := make([]bool, nc)
	for start := 0; start < nc; start++ {
		if seen[start] {
			continue
		}
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, c)
			nb := slices.Clone(adj[c])
			slices.SortFunc(nb, func(a, b edge) int { return cmp.Or(cmp.Compare(a.w, b.w), cmp.Compare(b.v, a.v)) })
			for _, e := range nb {
				if !seen[e.v] {
					seen[e.v] = true
					stack = append(stack, e.v)
				}
			}
		}
	}
	cur := make([]int, nc)
	for pos, c := range order {
		cur[c] = min(pos/cap, pes-1)
	}
	pl.SeedCost = cutCost(cur)
	best := pl.SeedCost

	// The assignment network: source → cell (capacity 1), cell → every PE,
	// PE → sink at the load cap.
	nw := network{n: 2 + nc + pes, supply: make([]int64, 2+nc+pes)}
	for c := 0; c < nc; c++ {
		nw.arcs = append(nw.arcs, arc{0, 2 + c, 1, 0})
		for p := 0; p < pes; p++ {
			nw.arcs = append(nw.arcs, arc{2 + c, 2 + nc + p, 1, 0})
		}
	}
	for p := 0; p < pes; p++ {
		nw.arcs = append(nw.arcs, arc{2 + nc + p, 1, int64(cap), 0})
	}
	nw.supply[0], nw.supply[1] = int64(nc), -int64(nc)
	got, want := nw.build()
	solves := 0
	for r := 0; r < rounds && best > 0; r++ {
		for c := 0; c < nc; c++ {
			attract := make([]int64, pes)
			for _, e := range adj[c] {
				attract[cur[e.v]] += e.w
			}
			for p, w := range attract {
				got.SetCost(c*(pes+1)+1+p, incident[c]-w)
				want.SetCost(c*(pes+1)+1+p, incident[c]-w)
			}
		}
		var gc, wc int64
		var gerr, werr error
		if r == 0 {
			gc, gerr = got.MinCostFlow(nw.supply)
			wc, werr = want.MinCostFlow(nw.supply)
		} else {
			gc, gerr = got.Resolve()
			wc, werr = want.Resolve()
		}
		solves++
		if d := same(got, want, len(nw.arcs), gc, wc, gerr, werr); d != "" {
			return nil, solves, fmt.Sprintf("round %d: %s", r, d)
		}
		if gerr != nil {
			return nil, solves, fmt.Sprintf("round %d: %v", r, gerr)
		}
		next := make([]int, nc)
		for c := range next {
			for p := 0; p < pes; p++ {
				if got.Flow(c*(pes+1)+1+p) > 0 {
					next[c] = p
				}
			}
		}
		c := cutCost(next)
		if c >= best {
			break
		}
		best, cur = c, next
		pl.Rounds++
	}
	pl.Cost = best
	for i, id := range compute {
		pl.PE[id] = cur[i]
	}
	return pl, solves, ""
}

// TestRealNetworksMatchReference holds the solver to its reference on the
// networks the compiler and the placer really solve, for the paper's
// programs and generated ones: every balancing network (the levels it
// gives are checked against balance.PlanGraph, so the network is the one
// balance builds) and every refinement round's assignment network on 4, 8
// and 16 PEs, warm re-solves included (the placement the rounds reach is
// checked against place.PlanTable).
func TestRealNetworksMatchReference(t *testing.T) {
	balancing, assignments := 0, 0
	for name, src := range realPrograms() {
		bare, err := core.CompileArtifact(src, core.Options{Passes: "none"})
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, src)
		}
		g := bare.Compiled.Graph
		nw := balancingNetwork(g)
		got, want := nw.build()
		c, err := got.MinCostFlow(nw.supply)
		wc, werr := want.MinCostFlow(nw.supply)
		if d := same(got, want, len(nw.arcs), c, wc, err, werr); d != "" {
			t.Fatalf("%s balancing network: %s", name, d)
		}
		h, err := got.Potentials()
		if err != nil {
			t.Fatalf("%s balancing network: %v", name, err)
		}
		plan, err := balance.PlanGraph(g, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// balance.Solve's levels are −h, shifted to start at 0.
		top := slices.Max(h)
		for v := range h {
			if lvl := top - h[v]; lvl != plan.Levels[v] {
				t.Fatalf("%s: level of cell %d is %d from the network, %d from balance: the network is not balance's", name, v, lvl, plan.Levels[v])
			}
		}
		balancing++

		art, err := core.CompileArtifact(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab, err := graph.Lower(art.Compiled.Graph)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pes := range []int{4, 8, 16} {
			replay, solves, d := assignment(tab, pes)
			if d != "" {
				t.Fatalf("%s on %d PEs: %s", name, pes, d)
			}
			planned, err := place.PlanTable(tab, place.Options{PEs: pes})
			if err != nil {
				t.Fatalf("%s on %d PEs: %v", name, pes, err)
			}
			if !reflect.DeepEqual(replay, planned) {
				t.Fatalf("%s on %d PEs: the replayed rounds reach %+v, PlanTable %+v: the replay is not place's", name, pes, *replay, *planned)
			}
			assignments += solves
		}
	}
	t.Logf("%d balancing networks, %d assignment solves", balancing, assignments)
}

// FuzzMinCostFlow holds the solver to its reference on fuzzed small
// networks and re-cost sequences: the first byte sizes the network, each
// following group of four bytes is an arc (ends, capacity, cost) or, with
// its high bit set, a supply, and the pairs of bytes left re-cost one arc
// each before a re-solve.
func FuzzMinCostFlow(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 5, 1, 2, 3, 4, 128, 0, 6, 0, 0, 3})
	f.Add([]byte{4, 0, 1, 255, 250, 1, 0, 255, 1, 2, 3, 1, 2, 129, 3, 7, 0, 0, 9, 2, 240})
	f.Add([]byte{2, 0, 0, 200, 200, 0, 1, 1, 1, 128, 1, 5, 0, 0, 7, 1, 7})
	f.Fuzz(fuzzMinCostFlow)
}

// fuzzMinCostFlow is FuzzMinCostFlow's body.
func fuzzMinCostFlow(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%8
	nw := network{n: n, supply: make([]int64, n)}
	data = data[1:]
	for len(data) >= 4 && len(nw.arcs) < 24 {
		rec := data[:4]
		data = data[4:]
		if rec[0]&0x80 != 0 {
			// A supply of rec[2]−4 units from one node to another.
			b := int64(rec[2]%9) - 4
			nw.supply[int(rec[0])%n] += b
			nw.supply[int(rec[1])%n] -= b
			continue
		}
		c := int64(rec[2] % 6)
		if rec[2] >= 200 {
			c = mincost.Inf
		}
		nw.arcs = append(nw.arcs, arc{int(rec[0]) % n, int(rec[1]) % n, c, int64(int8(rec[3])) % 16})
	}
	got, want := nw.build()
	c, err := got.MinCostFlow(nw.supply)
	wc, werr := want.MinCostFlow(nw.supply)
	if d := same(got, want, len(nw.arcs), c, wc, err, werr); d != "" {
		t.Fatalf("solve: %s\nnetwork %+v", d, nw)
	}
	if len(nw.arcs) == 0 {
		return
	}
	for len(data) >= 2 {
		e, cost := int(data[0])%len(nw.arcs), int64(int8(data[1]))%24
		data = data[2:]
		got.SetCost(e, cost)
		want.SetCost(e, cost)
		nw.arcs[e].cost = cost
		c, err := got.Resolve()
		wc, werr := want.Resolve()
		if d := same(got, want, len(nw.arcs), c, wc, err, werr); d != "" {
			t.Fatalf("re-solve after edge %d costs %d: %s\nnetwork %+v", e, cost, d, nw)
		}
	}
}
