// This file is the maximum-cycle-ratio analysis as it stood before its
// solver shared one CSR adjacency and one set of arrays per call: MaxRatio
// and CriticalNodes with what they call, copied verbatim, as the oracle
// TestSolverMatchesReference and TestRealGraphsMatchReference hold
// package mcm to.

package mcm_test

import (
	"errors"
	"fmt"
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
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return Result{}, fmt.Errorf("mcm: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.Tokens < 0 {
			return Result{}, fmt.Errorf("mcm: negative tokens on edge %d->%d", e.From, e.To)
		}
	}
	h := newHoward(n, edges)
	if len(h.nodes) == 0 {
		return Result{}, nil
	}
	var tokenless []Edge
	for _, e := range edges {
		if e.Tokens == 0 {
			tokenless = append(tokenless, e)
		}
	}
	if hasCycle(n, tokenless) {
		return Result{}, ErrDeadlock
	}
	h.solve()
	if !h.verify() {
		return Result{}, errors.New("mcm: ratio verification failed (policy iteration ended below a cycle's ratio)")
	}
	best := Result{HasCycle: true, Num: 0, Den: 1}
	for _, v := range h.nodes {
		if h.num[v]*best.Den > best.Num*h.den[v] {
			best.Num, best.Den = h.num[v], h.den[v]
		}
	}
	return best, nil
}

// howard is the policy-iteration state over the edges that lie inside a
// strongly connected component (only those can be on a cycle).
type howard struct {
	edges []Edge
	nodes []int // nodes with an intra-component out-edge, ascending
	off   []int // intra-component out-edges of v: out[off[v]:off[v+1]]
	out   []int // edge indexes
	pol   []int // policy: the chosen out-edge index per node
	// The ratio num/den (reduced, den > 0) of the policy cycle each node
	// reaches, and its potential: den times the length, at that ratio, of
	// its policy path to the cycle's root.
	num, den, x []int64
	mark        []uint8 // value determination: 0 unseen, 1 on the walk, 2 done
}

func newHoward(n int, edges []Edge) *howard {
	comp := sccs(n, edges)
	h := &howard{
		edges: edges,
		off:   make([]int, n+1),
		pol:   make([]int, n),
		num:   make([]int64, n),
		den:   make([]int64, n),
		x:     make([]int64, n),
		mark:  make([]uint8, n),
	}
	for _, e := range edges {
		if comp[e.From] == comp[e.To] {
			h.off[e.From+1]++
		}
	}
	for v := 0; v < n; v++ {
		if h.off[v+1] > 0 {
			h.nodes = append(h.nodes, v)
		}
		h.off[v+1] += h.off[v]
	}
	h.out = make([]int, h.off[n])
	next := append([]int(nil), h.off[:n]...)
	for i, e := range edges {
		if comp[e.From] == comp[e.To] {
			h.out[next[e.From]] = i
			next[e.From]++
		}
	}
	// Initial policy: each node's longest out-edge (the first on ties).
	for _, v := range h.nodes {
		h.pol[v] = h.out[h.off[v]]
		for _, i := range h.out[h.off[v]:h.off[v+1]] {
			if edges[i].Latency > edges[h.pol[v]].Latency {
				h.pol[v] = i
			}
		}
	}
	return h
}

// solve improves the policy until it is optimal. Policy iteration with
// strict improvements and exact arithmetic terminates; on return every
// node of a component carries the component's maximum ratio.
func (h *howard) solve() {
	for {
		h.evaluate()
		if !h.improve() {
			return
		}
	}
}

// evaluate computes each node's policy-cycle ratio and potential. Every
// node has one policy successor, so walking successors from any node ends
// on a cycle. Each cycle's root is its smallest node, with potential 0: a
// cycle that survives an improvement keeps its potentials, which is what
// makes the improvements monotone.
func (h *howard) evaluate() {
	clear(h.mark)
	var path []int
	for _, s := range h.nodes {
		if h.mark[s] != 0 {
			continue
		}
		path = path[:0]
		v := s
		for h.mark[v] == 0 {
			h.mark[v] = 1
			path = append(path, v)
			v = h.edges[h.pol[v]].To
		}
		if h.mark[v] == 1 {
			// A new cycle: path from v's position on.
			i := len(path) - 1
			for path[i] != v {
				i--
			}
			cyc := path[i:]
			var lat, tok int64
			root := 0
			for j, u := range cyc {
				e := h.edges[h.pol[u]]
				lat += e.Latency
				tok += e.Tokens
				if u < cyc[root] {
					root = j
				}
			}
			num, den := reduce(lat, tok)
			r := cyc[root]
			h.num[r], h.den[r], h.x[r], h.mark[r] = num, den, 0, 2
			for k := 1; k < len(cyc); k++ {
				h.settle(cyc[(root-k+len(cyc))%len(cyc)])
			}
			path = path[:i]
		}
		for j := len(path) - 1; j >= 0; j-- {
			h.settle(path[j])
		}
	}
}

// settle derives u's ratio and potential from its policy successor's.
func (h *howard) settle(u int) {
	e := h.edges[h.pol[u]]
	w := e.To
	h.num[u], h.den[u] = h.num[w], h.den[w]
	h.x[u] = h.den[w]*e.Latency - h.num[w]*e.Tokens + h.x[w]
	h.mark[u] = 2
}

// improve switches each node whose successors offer a higher cycle ratio
// to the best of them; if no node can, it switches nodes to an equal-ratio
// successor that gives a strictly longer path. It reports whether the
// policy changed.
func (h *howard) improve() bool {
	changed := false
	for _, u := range h.nodes {
		best, bn, bd := -1, h.num[u], h.den[u]
		for _, i := range h.out[h.off[u]:h.off[u+1]] {
			if w := h.edges[i].To; h.num[w]*bd > bn*h.den[w] {
				best, bn, bd = i, h.num[w], h.den[w]
			}
		}
		if best >= 0 {
			h.pol[u] = best
			changed = true
		}
	}
	if changed {
		return true
	}
	for _, u := range h.nodes {
		best, bx := -1, h.x[u]
		for _, i := range h.out[h.off[u]:h.off[u+1]] {
			e := h.edges[i]
			if h.num[e.To] != h.num[u] || h.den[e.To] != h.den[u] {
				continue
			}
			if x := h.den[u]*e.Latency - h.num[u]*e.Tokens + h.x[e.To]; x > bx {
				best, bx = i, x
			}
		}
		if best >= 0 {
			h.pol[u] = best
			changed = true
		}
	}
	return changed
}

// verify checks the final ratios exactly: with weights den·latency −
// num·tokens, no cycle inside a component may have positive weight, which
// longest-path relaxation (seeded with the negated potentials, which are
// already feasible when the policy is optimal) confirms by converging.
func (h *howard) verify() bool {
	dist := make([]int64, len(h.x))
	for _, v := range h.nodes {
		dist[v] = -h.x[v]
	}
	for iter := 0; iter <= len(h.nodes); iter++ {
		changed := false
		for _, u := range h.nodes {
			for _, i := range h.out[h.off[u]:h.off[u+1]] {
				e := h.edges[i]
				if d := dist[u] + h.den[u]*e.Latency - h.num[u]*e.Tokens; d > dist[e.To] {
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
// algorithm, iterative).
func sccs(n int, edges []Edge) []int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	const unseen = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for v := range index {
		index[v], comp[v] = unseen, unseen
	}
	var stack []int
	type frame struct{ node, next int }
	var call []frame
	counter, ncomp := 0, 0
	for s := 0; s < n; s++ {
		if index[s] != unseen {
			continue
		}
		call = append(call[:0], frame{s, 0})
		index[s], low[s] = counter, counter
		counter++
		stack = append(stack, s)
		onStack[s] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.node
			if f.next < len(adj[v]) {
				w := adj[v][f.next]
				f.next++
				switch {
				case index[w] == unseen:
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{w, 0})
				case onStack[w]:
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}

// hasCycle reports whether the edges form a directed cycle: some edge
// joins two nodes of one strongly connected component.
func hasCycle(n int, edges []Edge) bool {
	comp := sccs(n, edges)
	for _, e := range edges {
		if comp[e.From] == comp[e.To] {
			return true
		}
	}
	return false
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
	w := make([]int64, len(edges))
	for i, e := range edges {
		w[i] = r.Den*e.Latency - r.Num*e.Tokens
	}
	// Longest-path potentials: no positive cycle exists, so simple paths
	// attain the optimum and n rounds of relaxation converge.
	dist := make([]int64, n)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, e := range edges {
			if nd := dist[e.From] + w[i]; nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	adj := make([][]int, n) // tight-edge adjacency: node -> successor nodes
	for i, e := range edges {
		if dist[e.From]+w[i] == dist[e.To] {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	// Iterative DFS for a cycle in the tight subgraph; the gray stack is
	// the current path, so hitting a gray node yields the cycle directly.
	color := make([]uint8, n)
	type frame struct{ node, next int }
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		stack := []frame{{s, 0}}
		color[s] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				to := adj[f.node][f.next]
				f.next++
				switch color[to] {
				case 0:
					color[to] = 1
					stack = append(stack, frame{to, 0})
				case 1:
					var cyc []int
					for i := range stack {
						if stack[i].node == to {
							for _, fr := range stack[i:] {
								cyc = append(cyc, fr.node)
							}
							return cyc
						}
					}
				}
			} else {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
