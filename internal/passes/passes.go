// Package passes structures compilation as an explicit pipeline of graph
// transformation passes over the machine-level instruction graph.
//
// The paper's compilation story is staged — primitive-expression lowering
// (Thm 1), block schemes (Thms 2–3), then interconnection balancing
// (Thm 4, §8) — and this package gives each post-construction stage a
// uniform seam: a Pass maps one instruction graph to another, a Manager
// runs a configured pass list with per-pass wall-time and size statistics,
// optional IR snapshots after every pass, and an opt-in verifier
// (graph.Verify plus, once a balancing pass has run, the equal-path-length
// property of §3 via balance.CheckBalanced).
//
// The registered passes, the only way to choose a post-construction
// transformation (Parse spells a list of them; "" is balance alone and
// "none" is the empty list):
//
//	literal-control  expand idealized control generators into literal cells
//	arm-slack[=k]    pad data-dependent conditional arms with FIFO slack
//	dedup            common-cell elimination (hash-consing, package opt)
//	balance          optimal min-cost-flow balancing (package balance)
//	balance-naive    longest-path leveling (Montz's baseline)
//	expand-fifos     lower FIFO(k) cells to identity-cell chains
//
// The canonical order is the order above: structural rewrites first, then
// balancing (which must see final path lengths), then FIFO lowering.
// Passes that change path lengths reset Context.Balanced, so the verifier
// only enforces §3 balance while it is actually claimed to hold.
package passes

import (
	"fmt"

	"staticpipe/internal/balance"
	"staticpipe/internal/graph"
	"staticpipe/internal/opt"
	"staticpipe/internal/pe"
)

// LiteralControl expands every idealized control-generator cell with a
// finite pattern into the literal instruction subgraph Todd [15] describes
// (an interleaved-counter index stream compared against the pattern's
// true-runs). Infinite (free-running) generators are left in place: their
// expansion would never quiesce. The pass rebuilds the graph, so node IDs
// are not stable across it.
type LiteralControl struct{}

// Name implements Pass.
func (LiteralControl) Name() string { return "literal-control" }

// Run implements Pass.
func (LiteralControl) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
	expand := func(n *graph.Node) bool {
		return n.Op == graph.OpCtlGen && n.Pattern.Len() >= 0
	}
	any := false
	for _, n := range g.Nodes() {
		if expand(n) {
			any = true
			break
		}
	}
	if !any {
		return g, nil
	}
	ctx.Balanced = false

	out := graph.New()
	tail := make(map[graph.NodeID]*graph.Node, g.NumNodes())
	for _, n := range g.Nodes() {
		if expand(n) {
			tail[n.ID] = pe.LiteralPattern(out, n.Pattern.Values(), "lit:"+n.Label)
			continue
		}
		c := out.Add(n.Op, n.Label)
		c.Cap = n.Cap
		c.Stream = n.Stream
		c.Pattern = n.Pattern
		c.Buffer = n.Buffer
		for len(c.In) < len(n.In) {
			out.AddGate(c)
		}
		tail[n.ID] = c
	}
	for _, a := range g.Arcs() {
		na := out.ConnectGated(tail[a.From], a.Gate, tail[a.To], a.ToPort)
		if a.Init != nil {
			out.SetInit(na, *a.Init)
		}
		na.Feedback = a.Feedback
		na.Rigid = a.Rigid
		na.Skew = a.Skew
		na.Marking = a.Marking
	}
	for _, n := range g.Nodes() {
		if expand(n) {
			continue
		}
		for p, in := range n.In {
			if in.Literal != nil {
				out.SetLiteral(tail[n.ID], p, *in.Literal)
			}
		}
	}
	return out, nil
}

// ArmSlack pads both data arms of every data-dependent conditional MERGE
// with an elasticity FIFO of Stages stages. The one-token-per-arc
// discipline gives a conditional arm no room to queue a run of same-branch
// tokens; equal-length arm FIFOs add that room without disturbing balance
// (the balancer extends the control path to match — so this pass must run
// before a balancing pass). Statically-steered merges (control fed by a
// generator cell) and loop merges (on a directed cycle, or with feedback
// or rigid arms) are left alone.
type ArmSlack struct {
	// Stages is the FIFO depth added to each arm (≥ 1).
	Stages int
}

// Name implements Pass.
func (p ArmSlack) Name() string { return "arm-slack" }

// Run implements Pass.
func (p ArmSlack) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
	if p.Stages < 1 {
		return nil, fmt.Errorf("arm-slack: %d stages", p.Stages)
	}
	onCycle := g.OnCycle()
	// Snapshot the merge set first: InsertFIFO appends nodes.
	var merges []*graph.Node
	for _, n := range g.Nodes() {
		if n.Op != graph.OpMerge || onCycle[n.ID] {
			continue
		}
		ctl := n.In[0].Arc
		if ctl == nil || g.Node(ctl.From).Op == graph.OpCtlGen {
			continue // statically steered: token placement is known exactly
		}
		merges = append(merges, n)
	}
	padded := false
	for _, n := range merges {
		arms := make([]*graph.Arc, 0, 2)
		ok := true
		for _, port := range []int{1, 2} {
			a := n.In[port].Arc
			if a == nil {
				continue // constant arm: literal operands need no elasticity
			}
			if a.Feedback || a.Rigid {
				ok = false
				break
			}
			arms = append(arms, a)
		}
		if !ok {
			continue
		}
		for _, a := range arms {
			f := g.InsertFIFO(a, p.Stages)
			f.Label = "armslack"
			padded = true
		}
	}
	if padded {
		ctx.Balanced = false
	}
	return g, nil
}

// Dedup is common-cell elimination (package opt): structurally identical
// cells fed by identical operands are merged into one cell with fanout.
// The pass rebuilds the graph, so node IDs are not stable across it.
type Dedup struct{}

// Name implements Pass.
func (Dedup) Name() string { return "dedup" }

// Run implements Pass.
func (Dedup) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
	out, removed := opt.Dedup(g)
	ctx.Deduped += removed
	if removed > 0 {
		ctx.Balanced = false
	}
	return out, nil
}

// Balance equalizes path lengths so the graph sustains fully pipelined
// operation (§3, §8): optimal min-cost-flow balancing by default, naive
// longest-path leveling when Naive is set. The applied plan is recorded in
// Context.Plan and the §3 equal-path-length property is enforced by the
// verifier from this pass on.
type Balance struct {
	// Naive selects longest-path leveling instead of the optimal solver.
	Naive bool
}

// Name implements Pass.
func (p Balance) Name() string {
	if p.Naive {
		return "balance-naive"
	}
	return "balance"
}

// Run implements Pass.
func (p Balance) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
	plan, err := balance.PlanGraph(g, !p.Naive)
	if err != nil {
		return nil, err
	}
	balance.Apply(g, plan)
	ctx.Plan = plan
	ctx.Balanced = true
	return g, nil
}

// ExpandFIFOs lowers every FIFO(k) buffer cell to a chain of k identity
// cells — the literal buffer-stage construction of the paper. Path lengths
// are unchanged, so balance is preserved. The pass rebuilds the graph when
// any FIFO is present; node IDs are not stable across it.
type ExpandFIFOs struct{}

// Name implements Pass.
func (ExpandFIFOs) Name() string { return "expand-fifos" }

// Run implements Pass.
func (ExpandFIFOs) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) {
	return g.ExpandFIFOs(), nil
}

// Func adapts a plain function to the Pass interface (used by tests and
// one-off experiments).
type Func struct {
	PassName string
	Fn       func(*graph.Graph, *Context) (*graph.Graph, error)
}

// Name implements Pass.
func (f Func) Name() string { return f.PassName }

// Run implements Pass.
func (f Func) Run(g *graph.Graph, ctx *Context) (*graph.Graph, error) { return f.Fn(g, ctx) }
