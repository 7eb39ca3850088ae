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
	"fmt"
	"sort"

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
// cut weight.
type edge struct {
	u, v int // compute indices (not node IDs)
	w    int64
}

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
	var compute []int
	idx := make([]int, len(t.Cells))
	for id := range t.Cells {
		p.PE[id] = -1
		idx[id] = -1
		if op := t.Cells[id].Op; op != graph.OpSource && op != graph.OpSink {
			idx[id] = len(compute)
			compute = append(compute, id)
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
	// adjacency lists over compute indices
	adj := make([][]edge, nc)
	var incident []int64 = make([]int64, nc)
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], e)
		adj[e.v] = append(adj[e.v], edge{u: e.v, v: e.u, w: e.w})
		incident[e.u] += e.w
		incident[e.v] += e.w
	}

	cap := (nc + opts.PEs - 1) / opts.PEs
	cur := seed(nc, adj, cap, opts.PEs)
	p.SeedCost = cutCost(edges, cur)
	best := p.SeedCost

	// Min-cost refinement: re-solve the (cell, PE) assignment with each
	// cell's cost to a PE equal to the incident weight it would cut given
	// the neighbors' current positions; accept only strict improvements of
	// the exact recomputed cut, so the loop terminates.
	var as *assigner
	for r := 0; r < rounds && best > 0; r++ {
		if as == nil {
			as = newAssigner(nc, cap, opts.PEs, warm)
		}
		next, err := as.assign(adj, incident, cur)
		if err != nil {
			return nil, err
		}
		c := cutCost(edges, next)
		if c >= best {
			break
		}
		best = c
		cur = next
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
func weightArcs(t *graph.Table, idx []int, opts Options) []edge {
	onCrit := make([]bool, len(t.Cells))
	if _, crit, err := mcm.Critical(t); err == nil {
		for _, id := range crit {
			onCrit[id] = true
		}
	}
	acc := map[[2]int]int64{}
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
		k := [2]int{u, v}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		acc[k] += w
	}
	edges := make([]edge, 0, len(acc))
	for k, w := range acc {
		edges = append(edges, edge{u: k[0], v: k[1], w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	return edges
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
func seed(nc int, adj [][]edge, cap, pes int) []int {
	order := make([]int, 0, nc)
	seen := make([]bool, nc)
	var stack []int
	for start := 0; start < nc; start++ {
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
			// visited (and co-located) next
			nb := append([]edge(nil), adj[c]...)
			sort.Slice(nb, func(i, j int) bool {
				if nb[i].w != nb[j].w {
					return nb[i].w < nb[j].w
				}
				return nb[i].v > nb[j].v
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
	cellPE  []int // edge ID of cell c → PE p at c·pes + p
	attract []int64
	warm    bool
	solved  bool
}

func newAssigner(nc, cap, pes int, warm bool) *assigner {
	net := mincost.New(2 + nc + pes)
	s, t := 0, 1
	a := &assigner{net: net, nc: nc, pes: pes, warm: warm,
		cellPE: make([]int, 0, nc*pes), attract: make([]int64, pes)}
	for c := 0; c < nc; c++ {
		net.AddEdge(s, 2+c, 1, 0)
		for p := 0; p < pes; p++ {
			a.cellPE = append(a.cellPE, net.AddEdge(2+c, 2+nc+p, 1, 0))
		}
	}
	for p := 0; p < pes; p++ {
		net.AddEdge(2+nc+p, t, int64(cap), 0)
	}
	a.supply = make([]int64, 2+nc+pes)
	a.supply[s], a.supply[t] = int64(nc), -int64(nc)
	return a
}

// assign solves one refinement round: each cell's cost to a PE is the
// incident weight it would cut given the neighbors' positions in cur.
func (a *assigner) assign(adj [][]edge, incident []int64, cur []int) ([]int, error) {
	for c := 0; c < a.nc; c++ {
		// attract[p]: incident weight kept local if c lands on p
		clear(a.attract)
		for _, e := range adj[c] {
			a.attract[cur[e.v]] += e.w
		}
		for p, w := range a.attract {
			a.net.SetCost(a.cellPE[c*a.pes+p], incident[c]-w)
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
		return nil, fmt.Errorf("place: assignment solve: %w", err)
	}
	out := make([]int, a.nc)
	for c := range out {
		out[c] = -1
		for p := 0; p < a.pes; p++ {
			if a.net.Flow(a.cellPE[c*a.pes+p]) > 0 {
				out[c] = p
			}
		}
		if out[c] < 0 {
			return nil, fmt.Errorf("place: cell %d left unassigned", c)
		}
	}
	return out, nil
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
