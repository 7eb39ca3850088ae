// Package mcm computes the maximum cycle ratio of a marked graph — the
// analytical counterpart of the simulator in package exec.
//
// Under the static dataflow firing discipline, every data arc u→v carries a
// pair of timing constraints: the forward result path (v fires at least one
// cycle after u, enabled by the tokens initially on the arc) and the
// reverse acknowledge path (u may refill the arc only after v drains it;
// the free slot is an initial token on the reverse edge). The steady-state
// initiation interval of the whole graph is
//
//	II = max over directed cycles C of  latency(C) / tokens(C),
//
// a classical marked-graph result the paper uses implicitly throughout §3
// and §7: a producer/consumer arc pair forms a 2-cycle with one token
// (II = 2, "two instruction times"); Todd's 3-cell for-iter loop carries one
// token (II = 3, the paper's 1/3 rate); the companion-transformed loop has 4
// cells and two circulating values (II = 2, maximum). A cycle with zero
// tokens can never fire — a structural deadlock.
//
// The ratio is found by Howard's policy iteration on each strongly
// connected component, in exact integer arithmetic, and the best policy
// cycle's reduced fraction is verified by an integer Bellman-Ford check
// that no cycle exceeds it (see MaxRatio).
//
// Each analysis builds one CSR adjacency of the constraint graph, every
// node's out-edges in edge order, and sizes its per-node arrays once. The
// one adjacency serves both SCC passes (over all edges, and over the
// tokenless ones for the deadlock test, which no longer copies them), the
// policy iteration and, in Critical, the tight-edge search for a critical
// cycle, which reuses the Bellman-Ford distances, marks and DFS stack of
// the ratio computation.
//
// The timing graph is built from a graph's lowered form (graph.Table), the
// instruction table both simulators run, so its nodes are the cells the
// simulators number. PredictII lowers a bare graph first; an artifact that
// already holds its table calls PredictTable.
package mcm

import (
	"errors"
	"fmt"

	"staticpipe/internal/graph"
)

// Edge is one timing constraint: traversing it takes Latency cycles and it
// initially holds Tokens tokens. Latency may be negative — PredictII uses
// negative reverse latencies to model stream-grid skew — but every cycle a
// well-formed graph contains must have positive total latency (the
// producer/consumer pair cycles guarantee this for instruction graphs).
type Edge struct {
	From, To int
	Latency  int64
	Tokens   int64
}

// Result is the outcome of a cycle-ratio analysis.
type Result struct {
	// HasCycle reports whether the constraint graph contains any directed
	// cycle. Acyclic graphs impose no steady-state rate bound.
	HasCycle bool
	// Num/Den is the maximum cycle ratio as a reduced fraction; the
	// minimum sustainable initiation interval is Num/Den cycles per
	// firing. Zero when HasCycle is false.
	Num, Den int64
}

// Float returns the ratio as a float64 (0 when acyclic).
func (r Result) Float() float64 {
	if !r.HasCycle {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// String renders the result for reports.
func (r Result) String() string {
	if !r.HasCycle {
		return "acyclic (no rate bound)"
	}
	return fmt.Sprintf("II = %d/%d = %.4g", r.Num, r.Den, r.Float())
}

// ErrDeadlock reports a directed cycle with zero tokens: no cell on it can
// ever fire.
var ErrDeadlock = errors.New("mcm: zero-token cycle (structural deadlock)")

// MaxRatio computes the maximum cycle ratio of the given constraint graph
// on nodes 0..n-1. It returns ErrDeadlock if a zero-token cycle exists. A
// graph whose every cycle has non-positive latency reports 0/1.
//
// The ratio is found by Howard's policy iteration on the strongly
// connected components, in exact integer arithmetic: every node keeps one
// successor edge inside its component (the policy), every cycle of the
// policy graph has a ratio, and the policy is improved — first toward a
// successor whose cycle has a higher ratio, then, among equal ratios,
// toward a longer path to the cycle — until no improvement remains. The
// best policy cycle's ratio is then checked by integer Bellman-Ford: no
// cycle of the component may exceed it.
func MaxRatio(n int, edges []Edge) (Result, error) {
	if err := validate(n, edges); err != nil {
		return Result{}, err
	}
	return newSolver(n, edges).maxRatio()
}

// validate refuses out-of-range endpoints and negative token counts.
func validate(n int, edges []Edge) error {
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("mcm: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.Tokens < 0 {
			return fmt.Errorf("mcm: negative tokens on edge %d->%d", e.From, e.To)
		}
	}
	return nil
}

// solver is one analysis's workspace, sized once from the graph: the
// out-edges of every node in CSR form, in edge order, which the SCC
// passes, Howard's iteration and the critical-cycle search all walk, and
// the per-node arrays they share.
type solver struct {
	edges []Edge
	off   []int32 // out-edges of v: out[off[v]:off[v+1]]
	out   []int32 // edge indexes, in edge order within each node

	// Tarjan's SCC pass: DFS index, low link, component, and the SCC and
	// call stacks; the call stack doubles as the critical-cycle DFS path.
	index, low, comp []int32
	onStack          []bool
	stack            []int32
	call             []frame

	// Howard's policy iteration over the edges inside a component (only
	// those can be on a cycle): the nodes with such an edge, ascending;
	// each node's policy edge; the ratio num/den (reduced, den > 0) of the
	// policy cycle it reaches; and its potential x: den times the length,
	// at that ratio, of its policy path to the cycle's root.
	nodes       []int32
	pol         []int32
	num, den, x []int64
	mark        []uint8 // value determination: 0 unseen, 1 on the walk, 2 done; DFS colours
	path        []int32
	dist        []int64 // Bellman-Ford longest paths
}

// frame is one DFS level: a node and the position of its next out-edge.
type frame struct{ node, next int32 }

func newSolver(n int, edges []Edge) *solver {
	s := &solver{
		edges: edges,
		off:   make([]int32, n+1),
		out:   make([]int32, len(edges)),
		index: make([]int32, n), low: make([]int32, n), comp: make([]int32, n),
		onStack: make([]bool, n),
		stack:   make([]int32, 0, n), call: make([]frame, 0, n),
		nodes: make([]int32, 0, n), pol: make([]int32, n),
		num: make([]int64, n), den: make([]int64, n), x: make([]int64, n),
		mark: make([]uint8, n), path: make([]int32, 0, n),
		dist: make([]int64, n),
	}
	// off[v] counts v's out-edges, then, summed, marks the end of v's
	// block; filling from the last edge down moves it to the start.
	for _, e := range edges {
		s.off[e.From]++
	}
	for v := 1; v < n; v++ {
		s.off[v] += s.off[v-1]
	}
	s.off[n] = int32(len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		v := edges[i].From
		s.off[v]--
		s.out[s.off[v]] = int32(i)
	}
	return s
}

// outs returns v's out-edge indexes.
func (s *solver) outs(v int32) []int32 { return s.out[s.off[v]:s.off[v+1]] }

// inside reports whether edge i joins two nodes of one strongly connected
// component, as the last SCC pass labelled them.
func (s *solver) inside(i int32) bool {
	e := &s.edges[i]
	return s.comp[e.From] == s.comp[e.To]
}

func (s *solver) maxRatio() (Result, error) {
	n := int32(len(s.comp))
	// A zero-token cycle is a cycle of the tokenless edges alone. (A graph
	// with such a cycle is cyclic, so testing it first changes no answer.)
	s.sccs(true)
	for i := range s.edges {
		if s.edges[i].Tokens == 0 && s.inside(int32(i)) {
			return Result{}, ErrDeadlock
		}
	}
	s.sccs(false)
	s.nodes = s.nodes[:0]
	for v := int32(0); v < n; v++ {
		for _, i := range s.outs(v) {
			if s.inside(i) {
				s.nodes = append(s.nodes, v)
				break
			}
		}
	}
	if len(s.nodes) == 0 {
		return Result{}, nil
	}
	// Initial policy: each node's longest out-edge (the first on ties).
	for _, v := range s.nodes {
		s.pol[v] = -1
		for _, i := range s.outs(v) {
			if s.inside(i) && (s.pol[v] < 0 || s.edges[i].Latency > s.edges[s.pol[v]].Latency) {
				s.pol[v] = i
			}
		}
	}
	// Improve the policy until it is optimal. Policy iteration with strict
	// improvements and exact arithmetic terminates; then every node of a
	// component carries the component's maximum ratio.
	for {
		s.evaluate()
		if !s.improve() {
			break
		}
	}
	if !s.verify() {
		return Result{}, errors.New("mcm: ratio verification failed (policy iteration ended below a cycle's ratio)")
	}
	best := Result{HasCycle: true, Num: 0, Den: 1}
	for _, v := range s.nodes {
		if s.num[v]*best.Den > best.Num*s.den[v] {
			best.Num, best.Den = s.num[v], s.den[v]
		}
	}
	return best, nil
}

// evaluate computes each node's policy-cycle ratio and potential. Every
// node has one policy successor, so walking successors from any node ends
// on a cycle. Each cycle's root is its smallest node, with potential 0: a
// cycle that survives an improvement keeps its potentials, which is what
// makes the improvements monotone.
func (s *solver) evaluate() {
	clear(s.mark)
	for _, start := range s.nodes {
		if s.mark[start] != 0 {
			continue
		}
		path := s.path[:0]
		v := start
		for s.mark[v] == 0 {
			s.mark[v] = 1
			path = append(path, v)
			v = int32(s.edges[s.pol[v]].To)
		}
		if s.mark[v] == 1 {
			// A new cycle: path from v's position on.
			i := len(path) - 1
			for path[i] != v {
				i--
			}
			cyc := path[i:]
			var lat, tok int64
			root := 0
			for j, u := range cyc {
				e := &s.edges[s.pol[u]]
				lat += e.Latency
				tok += e.Tokens
				if u < cyc[root] {
					root = j
				}
			}
			num, den := reduce(lat, tok)
			r := cyc[root]
			s.num[r], s.den[r], s.x[r], s.mark[r] = num, den, 0, 2
			for k := 1; k < len(cyc); k++ {
				s.settle(cyc[(root-k+len(cyc))%len(cyc)])
			}
			path = path[:i]
		}
		for j := len(path) - 1; j >= 0; j-- {
			s.settle(path[j])
		}
		s.path = path
	}
}

// settle derives u's ratio and potential from its policy successor's.
func (s *solver) settle(u int32) {
	e := &s.edges[s.pol[u]]
	w := e.To
	s.num[u], s.den[u] = s.num[w], s.den[w]
	s.x[u] = s.den[w]*e.Latency - s.num[w]*e.Tokens + s.x[w]
	s.mark[u] = 2
}

// improve switches each node whose successors offer a higher cycle ratio
// to the best of them; if no node can, it switches nodes to an equal-ratio
// successor that gives a strictly longer path. It reports whether the
// policy changed.
func (s *solver) improve() bool {
	changed := false
	for _, u := range s.nodes {
		best, bn, bd := int32(-1), s.num[u], s.den[u]
		for _, i := range s.outs(u) {
			if !s.inside(i) {
				continue
			}
			if w := s.edges[i].To; s.num[w]*bd > bn*s.den[w] {
				best, bn, bd = i, s.num[w], s.den[w]
			}
		}
		if best >= 0 {
			s.pol[u] = best
			changed = true
		}
	}
	if changed {
		return true
	}
	for _, u := range s.nodes {
		best, bx := int32(-1), s.x[u]
		for _, i := range s.outs(u) {
			e := &s.edges[i]
			if !s.inside(i) || s.num[e.To] != s.num[u] || s.den[e.To] != s.den[u] {
				continue
			}
			if x := s.den[u]*e.Latency - s.num[u]*e.Tokens + s.x[e.To]; x > bx {
				best, bx = i, x
			}
		}
		if best >= 0 {
			s.pol[u] = best
			changed = true
		}
	}
	return changed
}

// verify checks the final ratios exactly: with weights den·latency −
// num·tokens, no cycle inside a component may have positive weight, which
// longest-path relaxation (seeded with the negated potentials, which are
// already feasible when the policy is optimal) confirms by converging.
func (s *solver) verify() bool {
	dist := s.dist
	clear(dist)
	for _, v := range s.nodes {
		dist[v] = -s.x[v]
	}
	for iter := 0; iter <= len(s.nodes); iter++ {
		changed := false
		for _, u := range s.nodes {
			for _, i := range s.outs(u) {
				if !s.inside(i) {
					continue
				}
				e := &s.edges[i]
				if d := dist[u] + s.den[u]*e.Latency - s.num[u]*e.Tokens; d > dist[e.To] {
					dist[e.To] = d
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// reduce returns lat/tok in lowest terms with a positive denominator
// (tok > 0).
func reduce(lat, tok int64) (int64, int64) {
	a, b := lat, tok
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 0, 1
	}
	return lat / a, tok / a
}

// sccs labels each node with its strongly connected component (Tarjan's
// algorithm, iterative), over every edge or, with tokenless set, over the
// edges that carry no token.
func (s *solver) sccs(tokenless bool) {
	const unseen = -1
	for v := range s.index {
		s.index[v], s.comp[v] = unseen, unseen
	}
	stack, call := s.stack[:0], s.call[:0]
	counter, ncomp := int32(0), int32(0)
	for start := range s.index {
		if s.index[start] != unseen {
			continue
		}
		v := int32(start)
		call = append(call[:0], frame{v, s.off[v]})
		s.index[v], s.low[v] = counter, counter
		counter++
		stack = append(stack, v)
		s.onStack[v] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.node
			if f.next < s.off[v+1] {
				e := &s.edges[s.out[f.next]]
				f.next++
				if tokenless && e.Tokens != 0 {
					continue
				}
				w := int32(e.To)
				switch {
				case s.index[w] == unseen:
					s.index[w], s.low[w] = counter, counter
					counter++
					stack = append(stack, w)
					s.onStack[w] = true
					call = append(call, frame{w, s.off[w]})
				case s.onStack[w]:
					s.low[v] = min(s.low[v], s.index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				s.low[p] = min(s.low[p], s.low[v])
			}
			if s.low[v] == s.index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					s.onStack[w] = false
					s.comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	s.stack, s.call = stack, call
}

// PredictII lowers g (graph.Lower) and returns PredictTable's bound.
func PredictII(g *graph.Graph) (Result, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return Result{}, err
	}
	return PredictTable(t)
}

// PredictTable builds the marked timing graph of a lowered instruction
// graph — FIFO(k) cells already k identity cells — and returns its maximum
// cycle ratio: the analytically predicted initiation interval.
//
// A loop's circulating values are the Marking of the arc re-entering its
// MERGE (1 for Todd loops, 2 for companion loops), counted once as that
// arc's initial tokens; every cycle of the loop passes through it.
// Graphs containing other data-dependent routing (gates, merges) are
// predicted under the conservative assumption that every arc is exercised
// every firing; for the unconditional graphs of §3 and the loop kernels
// of §7 the prediction is exact, and the test suite cross-checks it
// against simulation.
func PredictTable(t *graph.Table) (Result, error) {
	return MaxRatio(len(t.Cells), TimingEdges(t))
}

// TimingEdges builds the marked timing-constraint graph PredictTable
// analyzes, in arc order: a forward edge per lowered arc, holding the
// arc's Marking (plus one for an Init token) as tokens, and the reverse
// acknowledge edge carrying the arc's free slot: 1 − tokens, clamped at 0.
// A marked re-entry arc's acknowledge edge therefore carries no token,
// though its true count is 1 − Marking: the MERGE consumes the producer's
// value k at its firing k + Marking, and only then may the producer fire
// k + 1. The clamp can only lower a cycle's ratio, and it touches only
// arcs with Marking ≥ 2, which close full-rate loops. On a balanced graph
// it changes no prediction: there every edge, the feedback arcs of
// full-rate loops included, spans latency − 2·tokens levels, so every
// cycle, counted with true tokens, has ratio exactly 2. A feedback arc
// that carries tokens (an Init token on a hand-built loop) contributes no
// acknowledge edge: its producer is a gated merge that skips the send when
// the loop winds down, so the one-slot backpressure pair does not apply.
func TimingEdges(t *graph.Table) []Edge {
	edges := make([]Edge, 0, 2*len(t.Arcs))
	inits, attrs := t.Inits, t.Attrs
	for aid, a := range t.Arcs {
		var at graph.ArcAttr
		if len(attrs) > 0 && int(attrs[0].Arc) == aid {
			at, attrs = attrs[0], attrs[1:]
		}
		tok := int64(at.Marking)
		if len(inits) > 0 && int(inits[0].Arc) == aid {
			tok++
			inits = inits[1:]
		}
		// A window gate's output for wave j derives from input wave
		// j+Skew, shifting its timing by 2·Skew cycles at full rate: the
		// forward constraint lengthens and the acknowledge constraint
		// shortens by that amount (their pair cycle stays at ratio 2).
		skew := int64(at.Skew)
		edges = append(edges, Edge{From: int(a.From), To: int(a.To), Latency: 1 + 2*skew, Tokens: tok})
		if !at.Feedback || tok == 0 {
			rev := int64(1) - tok
			if rev < 0 {
				rev = 0
			}
			edges = append(edges, Edge{From: int(a.To), To: int(a.From), Latency: 1 - 2*skew, Tokens: rev})
		}
	}
	return edges
}

// Critical computes PredictTable's maximum cycle ratio together with
// the instruction cells of one critical cycle — the cycle whose
// latency/tokens ratio attains the bound, and therefore the path a
// bottleneck report should name. Node IDs are the table's cells, the
// FIFO-expanded graph's node IDs (the cells the simulators actually run).
// The cycle is nil for acyclic constraint graphs.
func Critical(t *graph.Table) (Result, []graph.NodeID, error) {
	n, edges := len(t.Cells), TimingEdges(t)
	if err := validate(n, edges); err != nil {
		return Result{}, nil, err
	}
	s := newSolver(n, edges)
	r, err := s.maxRatio()
	if err != nil || !r.HasCycle {
		return r, nil, err
	}
	cyc := s.critical(r)
	ids := make([]graph.NodeID, len(cyc))
	for i, v := range cyc {
		ids[i] = graph.NodeID(v)
	}
	return r, ids, nil
}

// CriticalNodes returns the nodes of one cycle achieving the maximum ratio
// r previously computed by MaxRatio over the same constraint graph, in
// traversal order. It returns nil if r reports no cycle.
//
// With weights w = Den·latency − Num·tokens no positive cycle exists and a
// critical cycle has total weight exactly zero. Longest-path potentials
// from a virtual source make every edge of such a cycle tight
// (dist[from] + w = dist[to]): around a cycle the potential differences sum
// to zero and each slack is nonnegative, so all slacks vanish. Conversely
// any cycle inside the tight subgraph telescopes to total weight zero, i.e.
// is critical — so one DFS over tight edges finds the answer.
func CriticalNodes(n int, edges []Edge, r Result) []int {
	if !r.HasCycle {
		return nil
	}
	return newSolver(n, edges).critical(r)
}

// critical is CriticalNodes over the solver's graph, reusing its arrays:
// the Bellman-Ford distances, the marks as DFS colours and the call stack
// as the DFS path.
func (s *solver) critical(r Result) []int {
	weight := func(e *Edge) int64 { return r.Den*e.Latency - r.Num*e.Tokens }
	// Longest-path potentials: no positive cycle exists, so simple paths
	// attain the optimum and n rounds of relaxation converge.
	dist := s.dist
	clear(dist)
	for iter := 0; iter <= len(dist); iter++ {
		changed := false
		for i := range s.edges {
			e := &s.edges[i]
			if nd := dist[e.From] + weight(e); nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Iterative DFS for a cycle in the tight subgraph; the gray stack is
	// the current path, so hitting a gray node yields the cycle directly.
	color := s.mark
	clear(color)
	for start := range color {
		if color[start] != 0 {
			continue
		}
		v := int32(start)
		stack := append(s.call[:0], frame{v, s.off[v]})
		color[v] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == s.off[f.node+1] {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			e := &s.edges[s.out[f.next]]
			f.next++
			if dist[e.From]+weight(e) != dist[e.To] {
				continue
			}
			switch to := int32(e.To); color[to] {
			case 0:
				color[to] = 1
				stack = append(stack, frame{to, s.off[to]})
			case 1:
				for i := range stack {
					if stack[i].node == to {
						cyc := make([]int, 0, len(stack)-i)
						for _, fr := range stack[i:] {
							cyc = append(cyc, int(fr.node))
						}
						return cyc
					}
				}
			}
		}
		s.call = stack
	}
	return nil
}
