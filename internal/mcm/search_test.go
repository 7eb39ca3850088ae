package mcm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// searchMaxRatio is the maximum-cycle-ratio search MaxRatio used before
// policy iteration, kept as an independent oracle: binary search on λ with
// float Bellman-Ford positive-cycle detection, snapped to the exact
// rational (denominators are bounded by the total token count) and
// verified with integer arithmetic.
func searchMaxRatio(n int, edges []Edge) (Result, error) {
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return Result{}, fmt.Errorf("mcm: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.Tokens < 0 {
			return Result{}, fmt.Errorf("mcm: negative tokens on edge %d->%d", e.From, e.To)
		}
	}
	if !dfsHasCycle(n, edges, func(Edge) bool { return true }) {
		return Result{}, nil
	}
	if dfsHasCycle(n, edges, func(e Edge) bool { return e.Tokens == 0 }) {
		return Result{}, ErrDeadlock
	}

	var totalLat, totalTok int64 = 0, 0
	for _, e := range edges {
		if e.Latency > 0 {
			totalLat += e.Latency
		}
		totalTok += e.Tokens
	}
	if totalTok == 0 {
		totalTok = 1
	}
	// positiveCycle(p, q) reports whether some cycle C has
	// latency(C)/tokens(C) > p/q, i.e. Σ(q·lat − p·tok) > 0 over C.
	positiveCycle := func(p, q int64) bool {
		w := make([]int64, len(edges))
		for i, e := range edges {
			w[i] = q*e.Latency - p*e.Tokens
		}
		return hasPositiveCycle(n, edges, w)
	}

	// Binary search λ = lo..hi on reals until the interval is narrower than
	// 1/(2·totalTok²); then exactly one rational with denominator ≤
	// totalTok lies in it — the answer.
	lo, hi := 0.0, float64(totalLat)
	for i := 0; i < 80 && hi-lo > 0.5/float64(totalTok*totalTok+1); i++ {
		mid := (lo + hi) / 2
		if positiveCycleFloat(n, edges, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	num, den := bestRational(lo, hi, totalTok)
	// Verify: no cycle exceeds num/den, and tightening by 1/den² finds one.
	if positiveCycle(num, den) {
		return Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too low: %d/%d)", num, den)
	}
	if num > 0 && !positiveCycle(num*den-1, den*den) {
		return Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too high: %d/%d)", num, den)
	}
	g := gcd(num, den)
	return Result{HasCycle: true, Num: num / g, Den: den / g}, nil
}

// dfsHasCycle detects a directed cycle over the subgraph of edges accepted
// by keep, using iterative three-color DFS.
func dfsHasCycle(n int, edges []Edge, keep func(Edge) bool) bool {
	adj := make([][]int, n)
	for i, e := range edges {
		if keep(e) {
			adj[e.From] = append(adj[e.From], i)
		}
	}
	color := make([]uint8, n) // 0 white, 1 gray, 2 black
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
				e := edges[adj[f.node][f.next]]
				f.next++
				switch color[e.To] {
				case 0:
					color[e.To] = 1
					stack = append(stack, frame{e.To, 0})
				case 1:
					return true
				}
			} else {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// hasPositiveCycle runs Bellman-Ford longest-path relaxation from a virtual
// source connected to every node; a relaxation surviving n rounds implies a
// positive-weight cycle.
func hasPositiveCycle(n int, edges []Edge, w []int64) bool {
	dist := make([]int64, n) // virtual source: dist 0 to every node
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, e := range edges {
			if nd := dist[e.From] + w[i]; nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// positiveCycleFloat is the float-weight variant used during the search.
func positiveCycleFloat(n int, edges []Edge, lambda float64) bool {
	dist := make([]float64, n)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, e := range edges {
			w := float64(e.Latency) - lambda*float64(e.Tokens)
			if nd := dist[e.From] + w; nd > dist[e.To]+1e-12 {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// bestRational returns the rational p/q with the smallest q ≤ maxDen lying
// in [lo, hi], found by walking the Stern–Brocot tree.
func bestRational(lo, hi float64, maxDen int64) (int64, int64) {
	// Handle integer-valued intervals directly.
	for k := int64(lo); float64(k) <= hi+1e-15; k++ {
		if float64(k) >= lo-1e-15 {
			return k, 1
		}
	}
	var pl, ql, pr, qr int64 = 0, 1, 1, 0 // 0/1 .. 1/0
	for i := 0; i < 1024; i++ {
		pm, qm := pl+pr, ql+qr
		if qm > maxDen {
			break
		}
		m := float64(pm) / float64(qm)
		switch {
		case m < lo:
			pl, ql = pm, qm
		case m > hi:
			pr, qr = pm, qm
		default:
			return pm, qm
		}
	}
	// Fall back to the closest bound with denominator maxDen.
	p := int64((lo+hi)/2*float64(maxDen) + 0.5)
	return p, maxDen
}

// randomConstraintGraph draws a constraint graph of the kinds MaxRatio
// meets and a few it should reject: several components (rings with chords
// and skewed forward/acknowledge pairs, as TimingEdges builds), arcs
// between components, self-loops, zero-token arcs, latencies down to −5,
// and now and then a zero-token ring (a deadlock).
func randomConstraintGraph(rng *rand.Rand) (int, []Edge) {
	var edges []Edge
	n := 0
	for c, comps := 0, 1+rng.Intn(4); c < comps; c++ {
		size := 1 + rng.Intn(10)
		base := n
		n += size
		node := func() int { return base + rng.Intn(size) }
		tok := func() int64 {
			if rng.Intn(10) == 0 {
				return 0
			}
			return int64(1 + rng.Intn(3))
		}
		switch rng.Intn(3) {
		case 0: // a ring with chords
			for i := 0; i < size; i++ {
				edges = append(edges, Edge{From: base + i, To: base + (i+1)%size,
					Latency: int64(rng.Intn(9) - 2), Tokens: tok()})
			}
			for k := rng.Intn(size + 1); k > 0; k-- {
				edges = append(edges, Edge{From: node(), To: node(), Latency: int64(rng.Intn(9) - 3), Tokens: tok()})
			}
		case 1: // forward/acknowledge pairs with stream-grid skew
			for i := 1; i < size; i++ {
				skew := int64(rng.Intn(5) - 2)
				from, to, init := base+rng.Intn(i), base+i, int64(rng.Intn(2))
				edges = append(edges,
					Edge{From: from, To: to, Latency: 1 + 2*skew, Tokens: init},
					Edge{From: to, To: from, Latency: 1 - 2*skew, Tokens: 1 - init})
			}
		default: // random arcs
			for k := 2 * size; k > 0; k-- {
				edges = append(edges, Edge{From: node(), To: node(), Latency: int64(rng.Intn(11) - 5), Tokens: tok()})
			}
		}
		if rng.Intn(30) == 0 && size > 1 { // a zero-token ring: deadlock
			for i := 0; i < size; i++ {
				edges = append(edges, Edge{From: base + i, To: base + (i+1)%size, Latency: 1})
			}
		}
	}
	for k := rng.Intn(n); k > 0; k-- { // arcs toward higher-numbered nodes
		from := rng.Intn(n - 1)
		edges = append(edges, Edge{From: from, To: from + 1 + rng.Intn(n-1-from),
			Latency: int64(rng.Intn(7) - 1), Tokens: int64(rng.Intn(2))})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return n, edges
}

// TestPolicyIterationMatchesSearch holds MaxRatio to the binary-search
// oracle on random constraint graphs: the same Result, the same error
// class, and therefore the same critical cycle.
func TestPolicyIterationMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var acyclic, deadlocks, ratios, nonPositive int
	for trial := 0; trial < 5000; trial++ {
		n, edges := randomConstraintGraph(rng)
		want, werr := searchMaxRatio(n, edges)
		got, gerr := MaxRatio(n, edges)
		if (werr == nil) != (gerr == nil) || errors.Is(werr, ErrDeadlock) != errors.Is(gerr, ErrDeadlock) {
			t.Fatalf("trial %d (n=%d, edges %v): error %v, search says %v", trial, n, edges, gerr, werr)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d, edges %v): %v, search says %v", trial, n, edges, got, want)
		}
		switch {
		case gerr != nil:
			deadlocks++
			continue
		case !got.HasCycle:
			acyclic++
		case got.Num == 0:
			nonPositive++
		default:
			ratios++
		}
		if c, w := CriticalNodes(n, edges, got), CriticalNodes(n, edges, want); !reflect.DeepEqual(c, w) {
			t.Fatalf("trial %d: critical cycle %v, search's %v", trial, c, w)
		}
	}
	t.Logf("%d positive ratios, %d non-positive, %d acyclic, %d deadlocks", ratios, nonPositive, acyclic, deadlocks)
	if ratios < 1000 || nonPositive == 0 || acyclic == 0 || deadlocks == 0 {
		t.Errorf("generator coverage too thin: %d positive, %d non-positive, %d acyclic, %d deadlocks",
			ratios, nonPositive, acyclic, deadlocks)
	}
}
