// Package mincost implements minimum-cost flow over node supplies by the
// primal network simplex method.
//
// It is the substrate behind optimal pipeline balancing: the paper (§8,
// conclusion 3) observes that balancing an acyclic dataflow graph with the
// minimum number of buffer stages "is equivalent to the linear programming
// dual of the min-cost flow problem". Package balance builds that flow
// network and reads the optimal buffer levels off this solver's node
// potentials; package place solves its cell → PE assignment with it.
//
// The solver keeps a strongly feasible spanning tree hung from an
// artificial root: every node starts attached to the root by an artificial
// arc carrying its supply (big-M cost toward demand nodes), so the first
// tree is feasible without a separate phase. Entering arcs are priced by
// block search over the real arcs; the leaving arc is the last blocking
// arc met when the pivot cycle is walked in the direction of flow from its
// apex, which keeps the tree strongly feasible and so rules out cycling
// under the long runs of degenerate pivots balancing networks produce.
// Each pivot re-hangs one subtree, and only that subtree's potentials
// change, all by the entering arc's reduced cost.
//
// Costs may be negative and arcs uncapacitated (capacity Inf). A
// negative-cost cycle of unbounded capacity makes the problem unbounded
// and is reported as ErrNegativeCycle; supplies that no flow can route are
// reported as ErrInfeasible.
//
// A solved network can be re-costed (SetCost) and re-solved from its last
// spanning tree (Resolve): the tree's flow does not depend on costs, so it
// stays a strongly feasible basis, and only the pivots the new costs call
// for are made. Package place re-solves one assignment network per
// refinement round this way.
//
// The network takes its edge count up front (New). Every arc array —
// endpoints, capacities, costs, flows and pivot states — is allocated
// once, with room for the n artificial arcs a solve appends after the
// real ones, and the simplex pivots on those arrays in place: a solve
// copies no arc, a re-solve allocates nothing, and SetCost writes the one
// cost array the simplex prices. Node and arc indices are int32; costs,
// capacities and flows are int64.
package mincost

import (
	"errors"
	"fmt"
	"math"
)

// Inf, used as an arc capacity, makes the arc uncapacitated.
const Inf int64 = math.MaxInt64

// Graph is a flow network under construction and solution, together with
// the simplex's working state: arcs 0..m-1 are the network's, arc m+v the
// artificial arc a solve hangs node v from the root by, and node n is that
// root. Every array is allocated once, by New.
type Graph struct {
	n, m      int // nodes; arcs added so far
	src, dst  []int32
	cap, cost []int64
	flow      []int64
	state     []int8

	// The spanning tree: each non-root node's parent, the tree arc to it
	// (pred) and whether that arc points at the parent (up), the node's
	// depth, and its children as a doubly linked sibling list.
	parent, pred []int32
	up           []bool
	depth        []int32
	child        []int32
	next, prev   []int32
	pi           []int64

	block, nextArc int

	// basis reports a spanning tree Resolve can start from: a MinCostFlow
	// got as far as solving and no edge was added since. solved makes the
	// last solve's flows readable, priced its potentials.
	basis, solved, priced bool
}

// New returns a network with n nodes numbered 0..n-1 and room for m edges.
// The arc arrays are sized once here, with room for the n artificial arcs
// a solve appends, and the simplex pivots on them in place.
func New(n, m int) *Graph {
	if n < 0 || m < 0 || int64(n)+int64(m)+1 > math.MaxInt32 {
		panic(fmt.Sprintf("mincost: %d nodes and %d edges out of range", n, m))
	}
	M, N := m+n, n+1
	return &Graph{
		n:   n,
		src: make([]int32, M), dst: make([]int32, M),
		cap: make([]int64, M), cost: make([]int64, M),
		flow: make([]int64, M), state: make([]int8, M),
		parent: make([]int32, N), pred: make([]int32, N), up: make([]bool, N),
		depth: make([]int32, N), child: make([]int32, N),
		next: make([]int32, N), prev: make([]int32, N), pi: make([]int64, N),
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity (Inf for none)
// and per-unit cost, returning an identifier usable with Flow. It panics
// on out-of-range endpoints, negative capacity, or more edges than New
// was given room for.
func (g *Graph) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mincost: edge %d->%d out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("mincost: negative capacity")
	}
	e := g.m
	if e+g.n == len(g.src) {
		panic(fmt.Sprintf("mincost: more than %d edges", e))
	}
	g.src[e], g.dst[e] = int32(u), int32(v)
	g.cap[e], g.cost[e], g.flow[e] = capacity, cost, 0
	g.m++
	g.basis, g.priced = false, false
	return e
}

// SetCost changes edge id's per-unit cost. The last solution's flows stay
// readable; its potentials are dropped until the next solve.
func (g *Graph) SetCost(id int, cost int64) {
	if id < 0 || id >= g.m {
		panic(fmt.Sprintf("mincost: no edge %d", id))
	}
	g.cost[id] = cost
	g.priced = false
}

// Flow returns the flow edge id carries in the last solution.
func (g *Graph) Flow(id int) int64 {
	if !g.solved || id >= g.m {
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
	g.basis, g.solved, g.priced = false, false, false
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
	g.initTree(supply, bigM)
	g.basis = true
	return g.run()
}

// Resolve re-solves the last MinCostFlow's supplies under the current
// costs, starting from the last solve's final spanning tree instead of the
// all-artificial one. Its results — cost, flows, potentials and errors —
// are those a fresh MinCostFlow would give, up to the choice among equal-
// cost optima. It fails if no MinCostFlow got as far as solving since the
// last AddEdge.
func (g *Graph) Resolve() (int64, error) {
	if !g.basis {
		return 0, errors.New("mincost: Resolve without a previous MinCostFlow")
	}
	g.solved, g.priced = false, false
	bigM, err := g.bigM()
	if err != nil {
		return 0, err
	}
	g.reprice(bigM)
	return g.run()
}

// bigM returns the artificial arcs' cost: one more than the sum of |cost|
// over all arcs, refused past maxCostSum.
func (g *Graph) bigM() (int64, error) {
	var costSum int64
	for _, c := range g.cost[:g.m] {
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

// run pivots the tree to optimality and publishes its flows and
// potentials.
func (g *Graph) run() (int64, error) {
	if err := g.solve(); err != nil {
		return 0, err
	}
	m := g.m
	for _, f := range g.flow[m : m+g.n] {
		if f != 0 {
			return 0, ErrInfeasible
		}
	}
	g.solved, g.priced = true, true
	var total int64
	for e, f := range g.flow[:m] {
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

// initTree sets up the first spanning tree of a solve.
func (g *Graph) initTree(supply []int64, bigM int64) {
	n, m := g.n, g.m
	root := int32(n)
	for e := 0; e < m; e++ {
		g.flow[e], g.state[e] = 0, stateLower
	}
	// The first tree hangs every node from the root by its artificial arc,
	// carrying the node's supply: toward the root at no cost from supply
	// nodes, away from it at cost bigM into demand nodes. bigM exceeds the
	// cost of any simple path, so an optimum that still routes flow through
	// the root proves the supplies cannot be routed. Zero-flow arcs all
	// point up, so flow can be pushed from any node to the root: the tree
	// is strongly feasible.
	g.parent[root], g.pred[root], g.up[root], g.depth[root], g.pi[root] = -1, -1, false, 0, 0
	g.child[root], g.next[root], g.prev[root] = -1, -1, -1
	for v := int32(n - 1); v >= 0; v-- {
		a := int32(m) + v
		g.cap[a], g.state[a] = Inf, stateTree
		if b := supply[v]; b >= 0 {
			g.src[a], g.dst[a] = v, root
			g.flow[a], g.cost[a] = b, 0
			g.up[v], g.pi[v] = true, 0
		} else {
			g.src[a], g.dst[a] = root, v
			g.flow[a], g.cost[a] = -b, bigM
			g.up[v], g.pi[v] = false, bigM
		}
		g.pred[v], g.depth[v], g.child[v] = a, 1, -1
		g.link(v, root)
	}
	g.block = max(10, int(math.Sqrt(float64(m))))
	g.nextArc = 0
}

// reprice gives the artificial arcs into demand nodes cost bigM and
// recomputes every potential down the tree, so that each tree arc has zero
// reduced cost under the current costs. The root keeps potential 0.
func (g *Graph) reprice(bigM int64) {
	root := int32(g.n)
	for v := int32(0); v < root; v++ {
		if a := int32(g.m) + v; g.dst[a] == v {
			g.cost[a] = bigM
		}
	}
	for x := g.child[root]; x >= 0; {
		if p, a := g.parent[x], g.pred[x]; g.up[x] {
			g.pi[x] = g.pi[p] - g.cost[a]
		} else {
			g.pi[x] = g.pi[p] + g.cost[a]
		}
		// Preorder successor over the child lists.
		if c := g.child[x]; c >= 0 {
			x = c
			continue
		}
		for x != root && g.next[x] < 0 {
			x = g.parent[x]
		}
		if x == root {
			break
		}
		x = g.next[x]
	}
}

// link hangs v from p as p's first child.
func (g *Graph) link(v, p int32) {
	g.parent[v] = p
	g.prev[v] = -1
	g.next[v] = g.child[p]
	if c := g.child[p]; c >= 0 {
		g.prev[c] = v
	}
	g.child[p] = v
}

// unlink detaches v from its parent's child list.
func (g *Graph) unlink(v int32) {
	if p := g.prev[v]; p >= 0 {
		g.next[p] = g.next[v]
	} else {
		g.child[g.parent[v]] = g.next[v]
	}
	if x := g.next[v]; x >= 0 {
		g.prev[x] = g.prev[v]
	}
}

// reduced returns arc e's cost reduced by the tree potentials.
func (g *Graph) reduced(e int) int64 {
	return g.cost[e] + g.pi[g.src[e]] - g.pi[g.dst[e]]
}

// entering prices the real arcs by block search, resuming where the last
// search stopped: it returns the most violating arc of the first block
// that holds a violation, or -1 when no arc violates optimality.
func (g *Graph) entering() int {
	best, bestV := -1, int64(0)
	e, left := g.nextArc, g.block
	for i := 0; i < g.m; i++ {
		if st := g.state[e]; st != stateTree {
			if v := int64(st) * g.reduced(e); v < bestV {
				best, bestV = e, v
			}
		}
		if e++; e == g.m {
			e = 0
		}
		if left--; left == 0 {
			if best >= 0 {
				break
			}
			left = g.block
		}
	}
	g.nextArc = e
	return best
}

// apex returns the nearest common ancestor of u and v.
func (g *Graph) apex(u, v int32) int32 {
	for g.depth[u] > g.depth[v] {
		u = g.parent[u]
	}
	for g.depth[v] > g.depth[u] {
		v = g.parent[v]
	}
	for u != v {
		u, v = g.parent[u], g.parent[v]
	}
	return u
}

// residual returns how much more flow arc e accepts.
func (g *Graph) residual(e int32) int64 {
	if g.cap[e] == Inf {
		return Inf
	}
	return g.cap[e] - g.flow[e]
}

func (g *Graph) solve() error {
	for {
		e := g.entering()
		if e < 0 {
			return nil
		}
		in := int32(e)
		// Flow circulates apex → first (down the tree), first → second
		// over the entering arc, second → apex (up the tree).
		first, second := g.src[in], g.dst[in]
		if g.state[in] == stateUpper {
			first, second = second, first
		}
		apex := g.apex(first, second)
		delta := g.residual(in)
		if g.state[in] == stateUpper {
			delta = g.flow[in]
		}
		// Ties go to the arc met last in flow order, so the first side is
		// walked against the flow with a strict test and the second side
		// along it with a non-strict one.
		out, side := int32(-1), 0
		for x := first; x != apex; x = g.parent[x] {
			d := g.flow[g.pred[x]]
			if !g.up[x] {
				d = g.residual(g.pred[x])
			}
			if d < delta {
				delta, out, side = d, x, 1
			}
		}
		for x := second; x != apex; x = g.parent[x] {
			d := g.flow[g.pred[x]]
			if g.up[x] {
				d = g.residual(g.pred[x])
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
			if g.state[in] == stateUpper {
				val = -delta
			}
			g.flow[in] += val
			for x := g.src[in]; x != apex; x = g.parent[x] {
				if g.up[x] {
					g.flow[g.pred[x]] -= val
				} else {
					g.flow[g.pred[x]] += val
				}
			}
			for x := g.dst[in]; x != apex; x = g.parent[x] {
				if g.up[x] {
					g.flow[g.pred[x]] += val
				} else {
					g.flow[g.pred[x]] -= val
				}
			}
		}
		if side == 0 {
			// The entering arc blocks itself: it moves to its other bound
			// and the tree stays as it is.
			g.state[in] = -g.state[in]
			continue
		}
		leaving := g.pred[out]
		g.state[in] = stateTree
		g.state[leaving] = stateLower
		if g.flow[leaving] != 0 {
			g.state[leaving] = stateUpper
		}
		uIn, vIn := first, second
		if side == 2 {
			uIn, vIn = second, first
		}
		g.rehang(in, uIn, vIn, out)
	}
}

// rehang replaces out's tree arc by the entering arc in, which joins uIn
// (inside out's subtree) to vIn (outside it): the tree path uIn … out is
// reversed so the subtree hangs from vIn by in, and the subtree's
// potentials shift together so that in's reduced cost becomes zero.
func (g *Graph) rehang(in, uIn, vIn, out int32) {
	sigma := g.pi[vIn] - g.pi[uIn] + g.cost[in]
	if g.src[in] == uIn {
		sigma = g.pi[vIn] - g.pi[uIn] - g.cost[in]
	}
	x, p, arc, up := uIn, vIn, in, g.src[in] == uIn
	for {
		oldP, oldArc, oldUp := g.parent[x], g.pred[x], g.up[x]
		g.unlink(x)
		g.link(x, p)
		g.pred[x], g.up[x] = arc, up
		if x == out {
			break
		}
		x, p, arc, up = oldP, x, oldArc, !oldUp
	}
	// Preorder walk of the re-hung subtree over the child lists.
	x = uIn
	for {
		g.pi[x] += sigma
		g.depth[x] = g.depth[g.parent[x]] + 1
		if c := g.child[x]; c >= 0 {
			x = c
			continue
		}
		for x != uIn && g.next[x] < 0 {
			x = g.parent[x]
		}
		if x == uIn {
			return
		}
		x = g.next[x]
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
	if !g.priced {
		return nil, errors.New("mincost: Potentials before a successful MinCostFlow")
	}
	n, m := g.n, g.m
	// Residual adjacency in CSR form, in edge order: each edge is listed
	// under its source (forward residual) and its destination (reverse
	// residual). start[v] counts v's entries, then, summed, marks the end
	// of v's block; filling from the last edge down moves it to the start.
	start := make([]int32, n+1)
	for e := 0; e < m; e++ {
		start[g.src[e]]++
		start[g.dst[e]]++
	}
	for v := 1; v < n; v++ {
		start[v] += start[v-1]
	}
	start[n] = int32(2 * m)
	adj := make([]int32, 2*m)
	for e := int32(m - 1); e >= 0; e-- {
		start[g.dst[e]]--
		adj[start[g.dst[e]]] = e
		start[g.src[e]]--
		adj[start[g.src[e]]] = e
	}
	// key[v] is the reduced distance d(v) − pi[v]; the virtual root's edge
	// gives every node d(v) ≤ 0 to start from.
	key := make([]int64, n)
	for v := range key {
		key[v] = -g.pi[v]
	}
	h := newNodeHeap(key)
	for len(h.heap) > 0 {
		u := h.pop()
		k := key[u]
		for _, e := range adj[start[u]:start[u+1]] {
			var v int32
			var rc int64
			if int(g.src[e]) == u && g.flow[e] < g.cap[e] {
				v, rc = g.dst[e], g.cost[e]+g.pi[u]-g.pi[g.dst[e]]
			} else if int(g.dst[e]) == u && g.flow[e] > 0 {
				v, rc = g.src[e], -g.cost[e]+g.pi[u]-g.pi[g.src[e]]
			} else {
				continue
			}
			if nk := k + rc; nk < key[v] {
				key[v] = nk
				h.decrease(v)
			}
		}
	}
	for v := range key {
		key[v] += g.pi[v]
	}
	return key, nil
}

// nodeHeap is a binary min-heap of nodes ordered by key, holding every
// node from the start. pos[v] is v's index in heap (-1 once popped), so a
// decreased key sifts its node up in place and the heap never grows.
type nodeHeap struct {
	key  []int64
	heap []int32
	pos  []int32
}

func newNodeHeap(key []int64) nodeHeap {
	n := len(key)
	idx := make([]int32, 2*n)
	h := nodeHeap{key: key, heap: idx[:n:n], pos: idx[n:]}
	for v := range h.heap {
		h.heap[v], h.pos[v] = int32(v), int32(v)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// pop removes and returns the node of least key.
func (h *nodeHeap) pop() int {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return int(top)
}

// decrease restores heap order after key[v] fell; a popped v is final.
func (h *nodeHeap) decrease(v int32) {
	i := int(h.pos[v])
	if i < 0 {
		return
	}
	for i > 0 {
		p := (i - 1) / 2
		if h.key[h.heap[p]] <= h.key[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i], h.pos[v] = v, int32(i)
}

func (h *nodeHeap) down(i int) {
	a, key := h.heap, h.key
	for {
		l, small := 2*i+1, i
		if l < len(a) && key[a[l]] < key[a[small]] {
			small = l
		}
		if r := l + 1; r < len(a) && key[a[r]] < key[a[small]] {
			small = r
		}
		if small == i {
			return
		}
		a[i], a[small] = a[small], a[i]
		h.pos[a[i]], h.pos[a[small]] = int32(i), int32(small)
		i = small
	}
}
