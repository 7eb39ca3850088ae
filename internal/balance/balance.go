// Package balance equalizes path lengths in instruction graphs so that they
// sustain fully pipelined operation.
//
// The paper requires that "each path through the graph pass through exactly
// the same number of instruction cells" (§3); graphs built from expressions
// rarely satisfy this, so identity/FIFO buffer cells are inserted on short
// paths (Montz [14]). Section 8 states the algorithmic results this package
// implements:
//
//  1. balancing an acyclic flow graph is polynomial-time (Naive: longest-
//     path leveling by Bellman-Ford relaxation);
//  2. the buffering can often be reduced (Solve beats Naive whenever slack
//     placement matters);
//  3. optimum balancing — minimum total buffer stages — is the LP dual of a
//     min-cost flow problem (Solve constructs exactly that flow network and
//     reads the optimal levels off the solver's potentials).
//
// The constraint formulation: assign each cell an integer level π such that
// for every non-feedback arc (u,v), π(v) ≥ π(u) + stages(u), where
// stages(u) is 1 for ordinary cells and Cap for existing FIFO cells. The
// buffering inserted on the arc is the slack π(v) − π(u) − stages(u); the
// objective is the total slack. Rigid constraints (π(v) − π(u) = w exactly)
// support block-level composition where a block's interior must not be
// re-buffered.
package balance

import (
	"errors"
	"fmt"

	"staticpipe/internal/graph"
	"staticpipe/internal/mincost"
)

// Constraint is one difference constraint between levels:
// π(V) − π(U) ≥ W, with equality when Rigid.
type Constraint struct {
	U, V  int
	W     int64
	Rigid bool
}

// ErrInfeasible reports an unsatisfiable constraint system (a positive-
// weight cycle: for instruction graphs this means a directed cycle was not
// marked as feedback).
var ErrInfeasible = errors.New("balance: constraint system infeasible")

// Naive solves the constraint system by longest-path relaxation, producing
// the smallest feasible levels (ASAP leveling, the classical approach of
// Montz [14]). It runs in O(V·E) and is the baseline that Solve improves on.
func Naive(n int, cons []Constraint) ([]int64, error) {
	pi := make([]int64, n)
	for iter := 0; ; iter++ {
		changed := false
		for _, c := range cons {
			if nv := pi[c.U] + c.W; nv > pi[c.V] {
				pi[c.V] = nv
				changed = true
			}
			if c.Rigid {
				if nv := pi[c.V] - c.W; nv > pi[c.U] {
					pi[c.U] = nv
					changed = true
				}
			}
		}
		if !changed {
			return pi, nil
		}
		if iter > n+1 {
			return nil, ErrInfeasible
		}
	}
}

// Solve returns integer levels minimizing the total slack
// Σ_{non-rigid} (π(V) − π(U) − W) subject to the constraints. It builds the
// min-cost flow network that is the LP dual of the balancing problem (§8,
// conclusion 3) and recovers the optimal levels from the flow solver's
// potentials.
func Solve(n int, cons []Constraint) ([]int64, error) {
	if n == 0 {
		return nil, nil
	}
	// Dual derivation: minimizing Σ(π_V − π_U) over non-rigid constraints
	// subject to π_V − π_U ≥ W gives each node w an objective coefficient
	// a(w) = indeg(w) − outdeg(w) counted over non-rigid constraints. The
	// dual asks for a flow y ≥ 0 (free on rigid constraints) with node
	// divergence  inflow − outflow = a(w),  maximizing Σ W·y. We realize it
	// as a min-cost flow with node supplies −a(w): uncapacitated constraint
	// edges carry cost −W, and rigid constraints contribute a reverse edge
	// of cost +W so their dual variable is sign-free. One unit along every
	// non-rigid constraint routes the supplies, so the flow is always
	// feasible; it is unbounded exactly when no levels satisfy the
	// constraints.
	m := len(cons)
	for _, c := range cons {
		if c.Rigid {
			m++
		}
	}
	supply := make([]int64, n)
	net := mincost.New(n, m)
	for _, c := range cons {
		net.AddEdge(c.U, c.V, mincost.Inf, -c.W)
		if c.Rigid {
			net.AddEdge(c.V, c.U, mincost.Inf, c.W)
		} else {
			supply[c.U]++
			supply[c.V]--
		}
	}
	if _, err := net.MinCostFlow(supply); err != nil {
		if errors.Is(err, mincost.ErrNegativeCycle) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, fmt.Errorf("balance: internal error: %v", err)
	}
	h, err := net.Potentials()
	if err != nil {
		return nil, fmt.Errorf("balance: internal error: %v", err)
	}
	// Reduced-cost optimality of the flow makes π = −h feasible for the
	// primal, and complementary slackness makes it optimal. π takes over
	// h's array.
	pi := h
	var minPi int64
	for w := range pi {
		pi[w] = -pi[w]
		if w == 0 || pi[w] < minPi {
			minPi = pi[w]
		}
	}
	for w := range pi {
		pi[w] -= minPi // normalize to non-negative levels
	}
	if err := Check(n, cons, pi); err != nil {
		return nil, fmt.Errorf("balance: internal error: optimal levels infeasible: %v", err)
	}
	return pi, nil
}

// Check verifies that levels satisfy every constraint.
func Check(n int, cons []Constraint, pi []int64) error {
	if len(pi) < n {
		return fmt.Errorf("balance: %d levels for %d nodes", len(pi), n)
	}
	for _, c := range cons {
		d := pi[c.V] - pi[c.U]
		if d < c.W {
			return fmt.Errorf("balance: constraint π(%d)−π(%d) ≥ %d violated (got %d)", c.V, c.U, c.W, d)
		}
		if c.Rigid && d != c.W {
			return fmt.Errorf("balance: rigid constraint π(%d)−π(%d) = %d violated (got %d)", c.V, c.U, c.W, d)
		}
	}
	return nil
}

// TotalSlack sums the buffering implied by levels over non-rigid
// constraints.
func TotalSlack(cons []Constraint, pi []int64) int64 {
	var total int64
	for _, c := range cons {
		if !c.Rigid {
			total += pi[c.V] - pi[c.U] - c.W
		}
	}
	return total
}

// Plan is a balancing decision for an instruction graph: a level per cell
// and the buffer stages to insert per arc.
type Plan struct {
	// Levels holds π per NodeID.
	Levels []int64
	// Buffers maps arc ID to the FIFO stage count to insert (≥ 1 entries
	// only).
	Buffers map[int]int
	// Total is the total number of buffer stages the plan inserts.
	Total int
}

// stages returns the pipeline depth a token traverses inside cell n.
func stages(n *graph.Node) int64 {
	if n.Op == graph.OpFIFO {
		return int64(n.Cap)
	}
	return 1
}

// arcWeight is the timing weight of an arc in the full-rate schedule: the
// producing cell's stage count plus two cycles per token position of
// stream-grid skew (at the maximum rate of one firing per two cycles, a
// window gate's output for wave j emerges 2·Skew cycles after the wave-j
// baseline), less two cycles per loop seed on the arc. A for-iter MERGE
// emits its Marking seeds before it consumes the arc, so its wave k takes
// the producer's wave k − Marking, which left the producer 2·Marking
// cycles earlier. Each seed is counted once, on the arc that re-enters
// the MERGE; feedback arcs carry none and are skipped here.
func arcWeight(g *graph.Graph, a *graph.Arc) int64 {
	return stages(g.Node(a.From)) + 2*int64(a.Skew) - 2*int64(a.Marking)
}

// constraintsOf builds the level constraints of an instruction graph:
// one per non-feedback arc.
func constraintsOf(g *graph.Graph) []Constraint {
	n := 0
	for _, a := range g.Arcs() {
		if !a.Feedback {
			n++
		}
	}
	cons := make([]Constraint, 0, n)
	for _, a := range g.Arcs() {
		if a.Feedback {
			continue
		}
		cons = append(cons, Constraint{U: int(a.From), V: int(a.To), W: arcWeight(g, a), Rigid: a.Rigid})
	}
	return cons
}

// PlanGraph computes a balancing plan for an instruction graph. With
// optimal=true it minimizes total buffer stages via the min-cost-flow dual;
// otherwise it uses naive longest-path leveling. Feedback arcs are exempt.
// The non-feedback part of the graph must be acyclic.
func PlanGraph(g *graph.Graph, optimal bool) (*Plan, error) {
	cons := constraintsOf(g)
	var (
		pi  []int64
		err error
	)
	if optimal {
		pi, err = Solve(g.NumNodes(), cons)
	} else {
		pi, err = Naive(g.NumNodes(), cons)
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{Levels: pi, Buffers: map[int]int{}}
	for _, a := range g.Arcs() {
		if a.Feedback {
			continue
		}
		slack := pi[a.To] - pi[a.From] - arcWeight(g, a)
		if slack > 0 {
			p.Buffers[a.ID] = int(slack)
			p.Total += int(slack)
		}
	}
	return p, nil
}

// Apply inserts the plan's FIFO cells into the graph. Plan arc IDs refer to
// the graph's arcs as they were when the plan was computed; Apply must be
// called on that same graph before any further mutation.
func Apply(g *graph.Graph, p *Plan) {
	// Snapshot: InsertFIFO appends arcs, but existing arc IDs are stable.
	// Iterate in arc-ID order so inserted cell IDs are deterministic.
	arcs := make([]*graph.Arc, g.NumArcs())
	copy(arcs, g.Arcs())
	for _, a := range arcs {
		if k, ok := p.Buffers[a.ID]; ok {
			g.InsertFIFO(a, k)
		}
	}
}

// Balance computes an optimal plan and applies it, returning the plan.
func Balance(g *graph.Graph) (*Plan, error) {
	p, err := PlanGraph(g, true)
	if err != nil {
		return nil, err
	}
	Apply(g, p)
	if err := CheckBalanced(g); err != nil {
		return nil, fmt.Errorf("balance: internal error: graph unbalanced after Apply: %v", err)
	}
	return p, nil
}

// CheckBalanced verifies the §3 full-pipelining condition: an exact level
// assignment exists in which every non-feedback arc spans exactly the
// producing cell's stage count — equivalently, all reconvergent paths have
// equal length. Feedback arcs are ignored.
func CheckBalanced(g *graph.Graph) error {
	const unset = int64(-1 << 62)
	lvl := make([]int64, g.NumNodes())
	for i := range lvl {
		lvl[i] = unset
	}
	// Propagate exact levels across each weakly-connected component of the
	// non-feedback arc set.
	type halfEdge struct {
		other graph.NodeID
		delta int64 // level(other) − level(this)
	}
	adj := make([][]halfEdge, g.NumNodes())
	for _, a := range g.Arcs() {
		if a.Feedback {
			continue
		}
		w := arcWeight(g, a)
		adj[a.From] = append(adj[a.From], halfEdge{other: a.To, delta: w})
		adj[a.To] = append(adj[a.To], halfEdge{other: a.From, delta: -w})
	}
	for _, start := range g.Nodes() {
		if lvl[start.ID] != unset {
			continue
		}
		lvl[start.ID] = 0
		stack := []graph.NodeID{start.ID}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, he := range adj[u] {
				want := lvl[u] + he.delta
				switch lvl[he.other] {
				case unset:
					lvl[he.other] = want
					stack = append(stack, he.other)
				case want:
				default:
					return fmt.Errorf("balance: unbalanced at %s: level %d vs %d (unequal reconvergent paths)",
						g.Node(he.other).Name(), lvl[he.other], want)
				}
			}
		}
	}
	return nil
}
