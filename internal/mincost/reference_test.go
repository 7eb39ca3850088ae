// This file is the network simplex as it stood before its arc arrays were
// sized once and pivoted in place, copied verbatim (package doc aside) as
// the oracle TestSolverMatchesReference, TestRealNetworksMatchReference
// and FuzzMinCostFlow hold package mincost to: the same pivots give the
// same flows, potentials, costs and errors.

package mincost_test

import (
	"errors"
	"fmt"
	"math"
)

// Inf, used as an arc capacity, makes the arc uncapacitated.
const Inf int64 = math.MaxInt64

// Graph is a flow network under construction and solution.
type Graph struct {
	n    int
	src  []int
	dst  []int
	cap  []int64
	cost []int64
	flow []int64
	// pi holds the optimal tree potentials of the last successful solve
	// (nil before one).
	pi []int64
	// last is the last solve's simplex state, kept for Resolve (nil before
	// a solve and after AddEdge).
	last *simplex
}

// New returns a network with n nodes numbered 0..n-1.
func New(n int) *Graph {
	return &Graph{n: n}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity (Inf for none)
// and per-unit cost, returning an identifier usable with Flow. It panics
// on out-of-range endpoints or negative capacity.
func (g *Graph) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mincost: edge %d->%d out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("mincost: negative capacity")
	}
	g.src = append(g.src, u)
	g.dst = append(g.dst, v)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.pi, g.last = nil, nil
	return len(g.src) - 1
}

// SetCost changes edge id's per-unit cost. The last solution's flows stay
// readable; its potentials are dropped until the next solve.
func (g *Graph) SetCost(id int, cost int64) {
	g.cost[id] = cost
	if g.last != nil {
		g.last.cost[id] = cost
	}
	g.pi = nil
}

// Flow returns the flow edge id carries in the last solution.
func (g *Graph) Flow(id int) int64 {
	if id >= len(g.flow) {
		return 0
	}
	return g.flow[id]
}

// ErrNegativeCycle reports a negative-cost cycle of unbounded capacity,
// which makes min-cost flow unbounded (and, for package balance, means the
// balancing constraint system is infeasible).
var ErrNegativeCycle = errors.New("mincost: negative-cost cycle of unbounded capacity")

// ErrInfeasible reports supplies that no flow within the capacities can
// route.
var ErrInfeasible = errors.New("mincost: supplies cannot be routed")

// maxCostSum bounds the sum of |cost| over all arcs, so that the big-M
// artificial cost, tree potentials and reduced costs stay inside int64.
const maxCostSum = math.MaxInt64 / 8

// MinCostFlow routes the node supplies at minimum total cost and returns
// that cost. supply[v] > 0 is flow leaving v, supply[v] < 0 flow arriving
// at v; the supplies must sum to zero. The edge flows (Flow) and the
// optimal potentials (Potentials) of the solution stay on the graph.
func (g *Graph) MinCostFlow(supply []int64) (int64, error) {
	if len(supply) != g.n {
		panic(fmt.Sprintf("mincost: %d supplies for %d nodes", len(supply), g.n))
	}
	g.flow, g.pi, g.last = nil, nil, nil
	var sum int64
	for _, b := range supply {
		sum += b
	}
	if sum != 0 {
		return 0, fmt.Errorf("%w: supplies sum to %d", ErrInfeasible, sum)
	}
	bigM, err := g.bigM()
	if err != nil {
		return 0, err
	}
	g.last = newSimplex(g, supply, bigM)
	return g.run()
}

// Resolve re-solves the last MinCostFlow's supplies under the current
// costs, starting from the last solve's final spanning tree instead of the
// all-artificial one. Its results — cost, flows, potentials and errors —
// are those a fresh MinCostFlow would give, up to the choice among equal-
// cost optima. It fails if no MinCostFlow got as far as solving since the
// last AddEdge.
func (g *Graph) Resolve() (int64, error) {
	s := g.last
	if s == nil {
		return 0, errors.New("mincost: Resolve without a previous MinCostFlow")
	}
	g.flow, g.pi = nil, nil
	bigM, err := g.bigM()
	if err != nil {
		return 0, err
	}
	s.reprice(bigM)
	return g.run()
}

// bigM returns the artificial arcs' cost: one more than the sum of |cost|
// over all arcs, refused past maxCostSum.
func (g *Graph) bigM() (int64, error) {
	var costSum int64
	for _, c := range g.cost {
		if c < 0 {
			c = -c // math.MinInt64 stays negative and is refused below
		}
		if c < 0 || c > maxCostSum-costSum {
			return 0, fmt.Errorf("mincost: arc costs sum past %d", int64(maxCostSum))
		}
		costSum += c
	}
	return costSum + 1, nil
}

// run pivots the last simplex state to optimality and publishes its flows
// and potentials.
func (g *Graph) run() (int64, error) {
	s := g.last
	if err := s.solve(); err != nil {
		return 0, err
	}
	m := len(g.src)
	for v := 0; v < g.n; v++ {
		if s.flow[m+v] != 0 {
			return 0, ErrInfeasible
		}
	}
	g.flow = s.flow[:m:m]
	g.pi = s.pi[:g.n:g.n]
	var total int64
	for e, f := range g.flow {
		total += f * g.cost[e]
	}
	return total, nil
}

// Arc states: a tree arc is basic; a non-tree arc rests at its lower bound
// (zero flow) or at its upper bound (full capacity). The non-tree states
// double as the sign that turns a reduced cost into a pricing violation.
const (
	stateUpper int8 = -1
	stateTree  int8 = 0
	stateLower int8 = 1
)

// simplex is one solve's working state. Nodes 0..n-1 are the network's,
// node n the artificial root; arcs 0..m-1 are the network's, arc m+v the
// artificial arc joining node v to the root.
type simplex struct {
	m         int
	src, dst  []int
	cap, cost []int64
	flow      []int64
	state     []int8

	// The spanning tree: each non-root node's parent, the tree arc to it
	// (pred) and whether that arc points at the parent (up), the node's
	// depth, and its children as a doubly linked sibling list.
	parent, pred []int
	up           []bool
	depth        []int
	child        []int
	next, prev   []int
	pi           []int64

	block, nextArc int
}

func newSimplex(g *Graph, supply []int64, bigM int64) *simplex {
	n, m := g.n, len(g.src)
	root, N, M := n, n+1, m+n
	s := &simplex{
		m:   m,
		src: make([]int, M), dst: make([]int, M),
		cap: make([]int64, M), cost: make([]int64, M),
		flow: make([]int64, M), state: make([]int8, M),
		parent: make([]int, N), pred: make([]int, N), up: make([]bool, N),
		depth: make([]int, N), child: make([]int, N),
		next: make([]int, N), prev: make([]int, N), pi: make([]int64, N),
	}
	copy(s.src, g.src)
	copy(s.dst, g.dst)
	copy(s.cap, g.cap)
	copy(s.cost, g.cost)
	for e := 0; e < m; e++ {
		s.state[e] = stateLower
	}
	// The first tree hangs every node from the root by its artificial arc,
	// carrying the node's supply: toward the root at no cost from supply
	// nodes, away from it at cost bigM into demand nodes. bigM exceeds the
	// cost of any simple path, so an optimum that still routes flow through
	// the root proves the supplies cannot be routed. Zero-flow arcs all
	// point up, so flow can be pushed from any node to the root: the tree
	// is strongly feasible.
	s.parent[root], s.pred[root] = -1, -1
	s.child[root], s.next[root], s.prev[root] = -1, -1, -1
	for v := n - 1; v >= 0; v-- {
		a := m + v
		s.cap[a] = Inf
		if supply[v] >= 0 {
			s.src[a], s.dst[a] = v, root
			s.flow[a] = supply[v]
			s.up[v] = true
		} else {
			s.src[a], s.dst[a] = root, v
			s.flow[a] = -supply[v]
			s.cost[a] = bigM
			s.pi[v] = bigM
		}
		s.pred[v], s.depth[v], s.child[v] = a, 1, -1
		s.link(v, root)
	}
	s.block = max(10, int(math.Sqrt(float64(m))))
	return s
}

// reprice gives the artificial arcs into demand nodes cost bigM and
// recomputes every potential down the tree, so that each tree arc has zero
// reduced cost under the current costs. The root keeps potential 0.
func (s *simplex) reprice(bigM int64) {
	root := len(s.parent) - 1
	for v := 0; v < root; v++ {
		if a := s.m + v; s.dst[a] == v {
			s.cost[a] = bigM
		}
	}
	for x := s.child[root]; x >= 0; {
		if p, a := s.parent[x], s.pred[x]; s.up[x] {
			s.pi[x] = s.pi[p] - s.cost[a]
		} else {
			s.pi[x] = s.pi[p] + s.cost[a]
		}
		// Preorder successor over the child lists.
		if c := s.child[x]; c >= 0 {
			x = c
			continue
		}
		for x != root && s.next[x] < 0 {
			x = s.parent[x]
		}
		if x == root {
			break
		}
		x = s.next[x]
	}
}

// link hangs v from p as p's first child.
func (s *simplex) link(v, p int) {
	s.parent[v] = p
	s.prev[v] = -1
	s.next[v] = s.child[p]
	if c := s.child[p]; c >= 0 {
		s.prev[c] = v
	}
	s.child[p] = v
}

// unlink detaches v from its parent's child list.
func (s *simplex) unlink(v int) {
	if p := s.prev[v]; p >= 0 {
		s.next[p] = s.next[v]
	} else {
		s.child[s.parent[v]] = s.next[v]
	}
	if x := s.next[v]; x >= 0 {
		s.prev[x] = s.prev[v]
	}
}

// reduced returns arc e's cost reduced by the tree potentials.
func (s *simplex) reduced(e int) int64 {
	return s.cost[e] + s.pi[s.src[e]] - s.pi[s.dst[e]]
}

// entering prices the real arcs by block search, resuming where the last
// search stopped: it returns the most violating arc of the first block
// that holds a violation, or -1 when no arc violates optimality.
func (s *simplex) entering() int {
	best, bestV := -1, int64(0)
	e, left := s.nextArc, s.block
	for i := 0; i < s.m; i++ {
		if st := s.state[e]; st != stateTree {
			if v := int64(st) * s.reduced(e); v < bestV {
				best, bestV = e, v
			}
		}
		if e++; e == s.m {
			e = 0
		}
		if left--; left == 0 {
			if best >= 0 {
				break
			}
			left = s.block
		}
	}
	s.nextArc = e
	return best
}

// apex returns the nearest common ancestor of u and v.
func (s *simplex) apex(u, v int) int {
	for s.depth[u] > s.depth[v] {
		u = s.parent[u]
	}
	for s.depth[v] > s.depth[u] {
		v = s.parent[v]
	}
	for u != v {
		u, v = s.parent[u], s.parent[v]
	}
	return u
}

// residual returns how much more flow arc e accepts.
func (s *simplex) residual(e int) int64 {
	if s.cap[e] == Inf {
		return Inf
	}
	return s.cap[e] - s.flow[e]
}

func (s *simplex) solve() error {
	for {
		in := s.entering()
		if in < 0 {
			return nil
		}
		// Flow circulates apex → first (down the tree), first → second
		// over the entering arc, second → apex (up the tree).
		first, second := s.src[in], s.dst[in]
		if s.state[in] == stateUpper {
			first, second = second, first
		}
		apex := s.apex(first, second)
		delta := s.residual(in)
		if s.state[in] == stateUpper {
			delta = s.flow[in]
		}
		// Ties go to the arc met last in flow order, so the first side is
		// walked against the flow with a strict test and the second side
		// along it with a non-strict one.
		out, side := -1, 0
		for x := first; x != apex; x = s.parent[x] {
			d := s.flow[s.pred[x]]
			if !s.up[x] {
				d = s.residual(s.pred[x])
			}
			if d < delta {
				delta, out, side = d, x, 1
			}
		}
		for x := second; x != apex; x = s.parent[x] {
			d := s.flow[s.pred[x]]
			if s.up[x] {
				d = s.residual(s.pred[x])
			}
			if d <= delta {
				delta, out, side = d, x, 2
			}
		}
		if delta == Inf {
			return ErrNegativeCycle
		}
		if delta > 0 {
			val := delta
			if s.state[in] == stateUpper {
				val = -delta
			}
			s.flow[in] += val
			for x := s.src[in]; x != apex; x = s.parent[x] {
				if s.up[x] {
					s.flow[s.pred[x]] -= val
				} else {
					s.flow[s.pred[x]] += val
				}
			}
			for x := s.dst[in]; x != apex; x = s.parent[x] {
				if s.up[x] {
					s.flow[s.pred[x]] += val
				} else {
					s.flow[s.pred[x]] -= val
				}
			}
		}
		if side == 0 {
			// The entering arc blocks itself: it moves to its other bound
			// and the tree stays as it is.
			s.state[in] = -s.state[in]
			continue
		}
		leaving := s.pred[out]
		s.state[in] = stateTree
		s.state[leaving] = stateLower
		if s.flow[leaving] != 0 {
			s.state[leaving] = stateUpper
		}
		uIn, vIn := first, second
		if side == 2 {
			uIn, vIn = second, first
		}
		s.rehang(in, uIn, vIn, out)
	}
}

// rehang replaces out's tree arc by the entering arc in, which joins uIn
// (inside out's subtree) to vIn (outside it): the tree path uIn … out is
// reversed so the subtree hangs from vIn by in, and the subtree's
// potentials shift together so that in's reduced cost becomes zero.
func (s *simplex) rehang(in, uIn, vIn, out int) {
	sigma := s.pi[vIn] - s.pi[uIn] + s.cost[in]
	if s.src[in] == uIn {
		sigma = s.pi[vIn] - s.pi[uIn] - s.cost[in]
	}
	x, p, arc, up := uIn, vIn, in, s.src[in] == uIn
	for {
		oldP, oldArc, oldUp := s.parent[x], s.pred[x], s.up[x]
		s.unlink(x)
		s.link(x, p)
		s.pred[x], s.up[x] = arc, up
		if x == out {
			break
		}
		x, p, arc, up = oldP, x, oldArc, !oldUp
	}
	// Preorder walk of the re-hung subtree over the child lists.
	x = uIn
	for {
		s.pi[x] += sigma
		s.depth[x] = s.depth[s.parent[x]] + 1
		if c := s.child[x]; c >= 0 {
			x = c
			continue
		}
		for x != uIn && s.next[x] < 0 {
			x = s.parent[x]
		}
		if x == uIn {
			return
		}
		x = s.next[x]
	}
}

// Potentials returns, for the last solution's residual network, the
// greatest price vector h ≤ 0 under which every residual edge (u→v with
// flow below capacity, or v→u with positive flow) has non-negative reduced
// cost cost + h[u] − h[v]: the shortest-path distances from a virtual root
// with zero-cost edges to every node. Every optimal flow admits the same
// set of optimal prices, so h does not depend on which optimum the solver
// found. These prices are the optimal duals of the flow LP — exactly the
// balancing levels package balance needs (negated).
//
// It runs one Dijkstra over costs reduced by the solution's tree
// potentials, which are non-negative on every residual edge.
func (g *Graph) Potentials() ([]int64, error) {
	if g.pi == nil {
		return nil, errors.New("mincost: Potentials before a successful MinCostFlow")
	}
	n, m := g.n, len(g.src)
	// Residual adjacency in CSR form: each edge is listed under its source
	// (forward residual) and its destination (reverse residual).
	start := make([]int, n+1)
	for e := 0; e < m; e++ {
		start[g.src[e]+1]++
		start[g.dst[e]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	at := append([]int(nil), start[:n]...)
	adj := make([]int, 2*m)
	for e := 0; e < m; e++ {
		adj[at[g.src[e]]] = e
		at[g.src[e]]++
		adj[at[g.dst[e]]] = e
		at[g.dst[e]]++
	}
	// key[v] is the reduced distance d(v) − pi[v]; the virtual root's edge
	// gives every node d(v) ≤ 0 to start from.
	key := make([]int64, n)
	h := make(nodeHeap, 0, n)
	for v := 0; v < n; v++ {
		key[v] = -g.pi[v]
		h.push(v, key[v])
	}
	done := make([]bool, n)
	for len(h) > 0 {
		u, k := h.pop()
		if done[u] || k != key[u] {
			continue
		}
		done[u] = true
		for _, e := range adj[start[u]:start[u+1]] {
			var v int
			var rc int64
			if g.src[e] == u && g.flow[e] < g.cap[e] {
				v, rc = g.dst[e], g.cost[e]+g.pi[u]-g.pi[g.dst[e]]
			} else if g.dst[e] == u && g.flow[e] > 0 {
				v, rc = g.src[e], -g.cost[e]+g.pi[u]-g.pi[g.src[e]]
			} else {
				continue
			}
			if nk := k + rc; nk < key[v] {
				key[v] = nk
				h.push(v, nk)
			}
		}
	}
	for v := range key {
		key[v] += g.pi[v]
	}
	return key, nil
}

// nodeHeap is a binary min-heap of (node, key) entries; stale entries are
// skipped by the caller rather than removed.
type nodeHeap []heapEntry

type heapEntry struct {
	key  int64
	node int
}

func (h *nodeHeap) push(v int, k int64) {
	*h = append(*h, heapEntry{k, v})
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].key <= a[i].key {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *nodeHeap) pop() (int, int64) {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < len(a) && a[l].key < a[small].key {
			small = l
		}
		if r := l + 1; r < len(a) && a[r].key < a[small].key {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
	return top.node, top.key
}
