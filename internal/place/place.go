// Package place computes contention-aware instruction-cell → PE mappings
// for the packet-level machine (package machine).
//
// The machine's routing network charges every remote result and acknowledge
// packet a transit delay and serializes deliveries to one per endpoint per
// cycle, while packets between cells resident on the same endpoint bypass
// the network entirely (a one-cycle local hop). Placement therefore decides
// how much of a graph's steady-state token traffic the network carries: the
// distance between any two distinct endpoints is uniform, so the only
// spatial structure that matters is which arcs are *cut* — carried between
// endpoints — and how evenly the cells load the PEs' one-instruction-per-
// cycle bandwidth.
//
// Plan models this directly as a minimum-cost assignment: each compute cell
// must be placed on exactly one PE, each PE accepts at most ⌈cells/PEs⌉
// cells (the load-balance cap), and the objective is the total weight of
// cut arcs. Arc weights come from the static graph — how many packets per
// firing the arc's endpoints exchange, boosted on feedback arcs and on the
// mcm critical cycle, whose round-trip latency bounds the whole pipeline's
// rate (§7) — or, in profile-guided mode, from a previous run's observed
// per-cell firing counts (trace.Metrics), which weight hot regions by the
// traffic they actually carried. The assignment network is solved with
// package mincost (the same solver behind optimal buffering, §8
// conclusion 3), iterated to a fixed point from a connectivity-aware seed.
package place

import (
	"cmp"
	"fmt"
	"slices"

	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/mcm"
	"staticpipe/internal/mincost"
	"staticpipe/internal/trace"
)

// Options configures Plan.
type Options struct {
	// PEs is the processing-element count the mapping targets (required).
	PEs int
	// Metrics, when non-nil, switches to profile-guided weights: each
	// arc's packet-per-firing weight is scaled by the smaller of its
	// endpoints' observed firing counts, so regions that carried real
	// traffic dominate the objective. Firing counts are a property of the
	// dataflow schedule, not of where cells were placed, so metrics from a
	// run under any placement are valid.
	Metrics *trace.Metrics
}

const (
	// critBoost multiplies the weight of arcs joining two cells of the mcm
	// critical cycle: cutting the rate-bounding cycle adds network latency
	// directly to the whole pipeline's initiation interval.
	critBoost = 8
	// feedbackBoost multiplies the weight of declared feedback arcs: a
	// for-iter loop's circulating values pay the cut cost every iteration
	// and cannot be pipelined around.
	feedbackBoost = 4
	// rounds bounds the min-cost refinement iterations; each round
	// re-solves the assignment against the previous round's neighbor
	// positions and is accepted only if it strictly lowers the cut cost.
	rounds = 8
)

// Placement is a computed cell → PE mapping over a lowered graph.
type Placement struct {
	// PE maps each cell of the lowered graph (graph.Table, numbered as the
	// FIFO-expanded graph's nodes) to a PE index; sources and sinks, which
	// always reside on array memories, carry -1. It has one entry per
	// cell, so it is directly usable as machine.Config.Placement.
	PE []int
	// SeedCost and Cost are the cut-arc weight of the connectivity seed
	// and of the final mapping; Rounds counts accepted refinement rounds.
	SeedCost, Cost int64
	Rounds         int
}

// edge is one merged undirected compute-compute adjacency with its total
// cut weight; in a cell's neighbour list (adjacency) u is the cell.
type edge struct {
	u, v int32 // compute indices (not node IDs)
	w    int64
}

// adjacency lists each compute cell's neighbours in CSR form: cell c's
// are nbr[off[c]:off[c+1]], in the order of the merged edges.
type adjacency struct {
	off []int32
	nbr []edge
}

func (a *adjacency) of(c int) []edge { return a.nbr[a.off[c]:a.off[c+1]] }

// Plan lowers g (graph.Lower) and computes a placement for it on
// opts.PEs processing elements (see PlanTable).
func Plan(g *graph.Graph, opts Options) (*Placement, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return nil, err
	}
	return PlanTable(t, opts)
}

// PlanTable computes a placement for a lowered graph on opts.PEs
// processing elements. The mapping indexes the table's cells, the cells
// the machine runs.
func PlanTable(t *graph.Table, opts Options) (*Placement, error) {
	return plan(t, opts, true)
}

// Apply resolves a placement strategy, as the CLIs' -place flag names it,
// into cfg's assignment: stage, random and hotspot select the machine's
// built-in assignments, mincost plans from the lowered graph t, and
// profile plans from the metrics profile returns, a run of t under
// another assignment (firing counts do not depend on placement); only
// profile calls it. "" leaves cfg as it is.
func Apply(mode string, t *graph.Table, cfg *machine.Config, profile func() (*trace.Metrics, error)) error {
	switch mode {
	case "":
		return nil
	case "stage":
		cfg.Assign, cfg.Placement = machine.ByStage, nil
	case "random":
		cfg.Assign, cfg.Placement = machine.Random, nil
	case "hotspot":
		cfg.Assign, cfg.Placement = machine.HotSpot, nil
	case "mincost", "profile":
		opts := Options{PEs: cfg.PEs}
		if mode == "profile" {
			m, err := profile()
			if err != nil {
				return err
			}
			opts.Metrics = m
		}
		pl, err := PlanTable(t, opts)
		if err != nil {
			return err
		}
		cfg.Assign, cfg.Placement = machine.Placed, pl.PE
	default:
		return fmt.Errorf("unknown -place %q (want stage, random, hotspot, mincost or profile)", mode)
	}
	return nil
}

// plan is Plan with the choice of re-solving each refinement round's
// assignment from the previous round's simplex tree (warm) or from
// scratch.
func plan(t *graph.Table, opts Options, warm bool) (*Placement, error) {
	if opts.PEs <= 0 {
		return nil, fmt.Errorf("place: PEs must be positive, got %d", opts.PEs)
	}

	p := &Placement{PE: make([]int, len(t.Cells))}
	// compute[i] is the i-th compute cell's ID; idx inverts it.
	compute := make([]int32, 0, len(t.Cells))
	idx := make([]int32, len(t.Cells))
	for id := range t.Cells {
		p.PE[id] = -1
		idx[id] = -1
		if op := t.Cells[id].Op; op != graph.OpSource && op != graph.OpSink {
			idx[id] = int32(len(compute))
			compute = append(compute, int32(id))
		}
	}
	nc := len(compute)
	if nc == 0 {
		return p, nil
	}
	if opts.PEs == 1 {
		for _, id := range compute {
			p.PE[id] = 0
		}
		return p, nil
	}

	edges := weightArcs(t, idx, opts)
	adj, incident := neighbours(nc, edges)

	cap := (nc + opts.PEs - 1) / opts.PEs
	cur := seed(nc, adj, cap, opts.PEs)
	p.SeedCost = cutCost(edges, cur)
	best := p.SeedCost

	// Min-cost refinement: re-solve the (cell, PE) assignment with each
	// cell's cost to a PE equal to the incident weight it would cut given
	// the neighbors' current positions; accept only strict improvements of
	// the exact recomputed cut, so the loop terminates.
	var as *assigner
	next := make([]int, nc)
	for r := 0; r < rounds && best > 0; r++ {
		if as == nil {
			as = newAssigner(nc, cap, opts.PEs, warm)
		}
		if err := as.assign(adj, incident, cur, next); err != nil {
			return nil, err
		}
		c := cutCost(edges, next)
		if c >= best {
			break
		}
		best = c
		cur, next = next, cur
		p.Rounds++
	}
	p.Cost = best
	for i, id := range compute {
		p.PE[id] = cur[i]
	}
	return p, nil
}

// weightArcs merges the table's compute-compute arcs into undirected
// weighted edges. Per firing, a cut arc u→v costs: the result packet
// (unless u is arithmetic — those results ship from a function unit
// regardless of placement) plus the acknowledge packet v returns, each
// boosted on feedback arcs and on the critical cycle, and scaled by
// observed traffic in profile mode.
func weightArcs(t *graph.Table, idx []int32, opts Options) []edge {
	onCrit := make([]bool, len(t.Cells))
	if _, crit, err := mcm.Critical(t); err == nil {
		for _, id := range crit {
			onCrit[id] = true
		}
	}
	edges := make([]edge, 0, len(t.Arcs))
	attrs := t.Attrs
	for aid, a := range t.Arcs {
		feedback := false
		if len(attrs) > 0 && int(attrs[0].Arc) == aid {
			feedback, attrs = attrs[0].Feedback, attrs[1:]
		}
		u, v := idx[a.From], idx[a.To]
		if u < 0 || v < 0 || u == v {
			continue
		}
		w := int64(2) // result + ack
		if t.Cells[a.From].Op.IsArith() {
			w = 1 // result ships FU → consumer either way; only the ack localizes
		}
		if feedback {
			w *= feedbackBoost
		}
		if onCrit[a.From] && onCrit[a.To] {
			w *= critBoost
		}
		if m := opts.Metrics; m != nil {
			w *= observed(m, int(a.From), int(a.To))
		}
		edges = append(edges, edge{u: min(u, v), v: max(u, v), w: w})
	}
	// Parallel arcs become one edge: sorted by (u, v), each run of equal
	// ends is summed into its first entry.
	slices.SortFunc(edges, func(a, b edge) int {
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		return cmp.Compare(a.v, b.v)
	})
	out := edges[:0]
	for _, e := range edges {
		if k := len(out) - 1; k >= 0 && out[k].u == e.u && out[k].v == e.v {
			out[k].w += e.w
			continue
		}
		out = append(out, e)
	}
	return out
}

// neighbours lists each compute cell's merged edges, oriented away from
// the cell, and totals each cell's incident weight.
func neighbours(nc int, edges []edge) (adjacency, []int64) {
	// off[c] counts c's edges, then, summed, marks the end of c's block;
	// filling from the last edge down moves it to the block's start and
	// leaves each block in edge order.
	a := adjacency{off: make([]int32, nc+1), nbr: make([]edge, 2*len(edges))}
	incident := make([]int64, nc)
	for _, e := range edges {
		a.off[e.u]++
		a.off[e.v]++
		incident[e.u] += e.w
		incident[e.v] += e.w
	}
	for c := 1; c < nc; c++ {
		a.off[c] += a.off[c-1]
	}
	a.off[nc] = int32(len(a.nbr))
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		a.off[e.v]--
		a.nbr[a.off[e.v]] = edge{u: e.v, v: e.u, w: e.w}
		a.off[e.u]--
		a.nbr[a.off[e.u]] = e
	}
	return a, incident
}

// observed returns the traffic scale for an arc in profile mode: the
// smaller of the endpoints' firing counts (each firing moves one token and
// one ack across the arc), floored at 1 so unobserved arcs keep their
// static weight.
func observed(m *trace.Metrics, from, to int) int64 {
	var f, t int64
	if from < len(m.Cells) {
		f = m.Cells[from].Firings
	}
	if to < len(m.Cells) {
		t = m.Cells[to].Firings
	}
	if t < f {
		f = t
	}
	if f < 1 {
		f = 1
	}
	return f
}

// seed produces the initial assignment: cells in a heaviest-edge-first DFS
// preorder over the compute adjacency, cut into contiguous blocks of cap.
// Connected regions — chains, loops, reconvergent diamonds — land together
// by construction, which is already near-optimal for the chain-structured
// graphs the compiler emits; refinement then handles what connectivity
// order alone gets wrong.
func seed(nc int, adj adjacency, cap, pes int) []int {
	order := make([]int32, 0, nc)
	seen := make([]bool, nc)
	var stack []int32
	var nb []edge
	for start := int32(0); start < int32(nc); start++ {
		if seen[start] {
			continue
		}
		stack = append(stack[:0], start)
		seen[start] = true
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, c)
			// push lighter edges first so the heaviest neighbor is
			// visited (and co-located) next; neighbours are distinct, so
			// the order is total
			nb = append(nb[:0], adj.of(int(c))...)
			slices.SortFunc(nb, func(a, b edge) int {
				if a.w != b.w {
					return cmp.Compare(a.w, b.w)
				}
				return cmp.Compare(b.v, a.v)
			})
			for _, e := range nb {
				if !seen[e.v] {
					seen[e.v] = true
					stack = append(stack, e.v)
				}
			}
		}
	}
	out := make([]int, nc)
	for pos, c := range order {
		pe := pos / cap
		if pe >= pes {
			pe = pes - 1
		}
		out[c] = pe
	}
	return out
}

// assigner is one plan's (cell, PE) min-cost assignment network, built
// once: source → each cell (capacity 1), cell → every PE, PE → sink at the
// load cap, with one unit of supply per cell at the source. The flow is
// integral and saturates every cell, so reading the cell→PE edge flows
// yields a complete assignment. Rounds differ only in the cell→PE costs.
// With warm set, every round after the first re-optimizes from the
// previous round's simplex tree rather than solving from scratch.
type assigner struct {
	net     *mincost.Graph
	nc, pes int
	supply  []int64
	attract []int64
	warm    bool
	solved  bool
}

func newAssigner(nc, cap, pes int, warm bool) *assigner {
	net := mincost.New(2+nc+pes, nc*(pes+1)+pes)
	s, t := 0, 1
	a := &assigner{net: net, nc: nc, pes: pes, warm: warm, attract: make([]int64, pes)}
	for c := 0; c < nc; c++ {
		net.AddEdge(s, 2+c, 1, 0)
		for p := 0; p < pes; p++ {
			net.AddEdge(2+c, 2+nc+p, 1, 0)
		}
	}
	for p := 0; p < pes; p++ {
		net.AddEdge(2+nc+p, t, int64(cap), 0)
	}
	a.supply = make([]int64, 2+nc+pes)
	a.supply[s], a.supply[t] = int64(nc), -int64(nc)
	return a
}

// cellPE returns the edge ID of cell c → PE p: each cell's edges follow
// its source edge.
func (a *assigner) cellPE(c, p int) int { return c*(a.pes+1) + 1 + p }

// assign solves one refinement round into out: each cell's cost to a PE
// is the incident weight it would cut given the neighbors' positions in
// cur.
func (a *assigner) assign(adj adjacency, incident []int64, cur, out []int) error {
	for c := 0; c < a.nc; c++ {
		// attract[p]: incident weight kept local if c lands on p
		clear(a.attract)
		for _, e := range adj.of(c) {
			a.attract[cur[e.v]] += e.w
		}
		for p, w := range a.attract {
			a.net.SetCost(a.cellPE(c, p), incident[c]-w)
		}
	}
	var err error
	if a.warm && a.solved {
		_, err = a.net.Resolve()
	} else {
		_, err = a.net.MinCostFlow(a.supply)
		a.solved = true
	}
	if err != nil {
		return fmt.Errorf("place: assignment solve: %w", err)
	}
	for c := range out {
		out[c] = -1
		for p := 0; p < a.pes; p++ {
			if a.net.Flow(a.cellPE(c, p)) > 0 {
				out[c] = p
			}
		}
		if out[c] < 0 {
			return fmt.Errorf("place: cell %d left unassigned", c)
		}
	}
	return nil
}

// cutCost totals the weight of edges whose endpoints sit on different PEs.
func cutCost(edges []edge, pe []int) int64 {
	var c int64
	for _, e := range edges {
		if pe[e.u] != pe[e.v] {
			c += e.w
		}
	}
	return c
}
