// Package opt implements machine-independent optimization of instruction
// graphs, the kind of compiler polish the paper leaves to "further study"
// (§9's compiler design remark).
//
// The one pass implemented is common-cell elimination (hash-consing):
// structurally identical cells fed by identical operands compute identical
// streams, so one cell with fanout replaces them all. Compiled blocks
// produce duplicates routinely — repeated references A[i] in one
// expression each emit their own selection gate, and different references
// often share a control pattern. Cells on feedback cycles are left alone
// (their streams depend on loop state, and cycle-aware hash-consing buys
// nothing for the paper's graphs).
//
// The pass runs before balancing: fewer cells also means fewer paths for
// the balancer to equalize.
//
// A shared cell couples the regions that consume it through its
// acknowledge discipline, so it must be levelled where each consumer takes
// its tokens. Window gates of different grid shift share control
// generators; while their control arcs carried no skew, balancing levelled
// a shared generator as if every gate took it at the same stream position,
// and deduped Fig 3 ran below the maximum rate (experiment E17: II 2.188
// at m = 64, 2.219 at 256, 2.223 at 1024). With the data arc's skew on the
// control arc too it runs at II 2.000, in the same cycles as the graph
// without dedup, at m = 64–4096. On an UNBALANCED graph the coupling can
// deadlock the pipeline entirely (found by the differential pass
// harness). Dedup must therefore always be followed by a balancing pass;
// the pass manager enforces this by appending one (with a warning) to any
// pipeline where dedup would otherwise run last, so a deduped graph that
// leaves compilation is always balanced and live. The pass is opt-in
// (Options.Dedup), matching the paper's default of one generator per gate.
package opt

import (
	"fmt"
	"strings"

	"staticpipe/internal/graph"
)

// Dedup returns a semantically equivalent graph with structurally duplicate
// cells merged, and the number of cells removed. The input graph is not
// modified.
func Dedup(g *graph.Graph) (*graph.Graph, int) {
	n := g.NumNodes()
	inCycle := g.OnCycle()

	// rep maps every old node to its representative old node.
	rep := make([]graph.NodeID, n)
	for i := range rep {
		rep[i] = graph.NodeID(i)
	}
	byKey := map[string]graph.NodeID{}

	// Process in topological order of the acyclic part so operand
	// representatives are final before a node is keyed. Cycle nodes (and
	// anything downstream of nothing) keep themselves.
	order := topoOrder(g)
	for _, id := range order {
		nd := g.Node(id)
		if inCycle[id] || !dedupable(nd) {
			continue
		}
		key := nodeKey(g, nd, rep)
		if prev, ok := byKey[key]; ok {
			rep[id] = prev
		} else {
			byKey[key] = id
		}
	}

	// Rebuild the graph with representatives only.
	out := graph.New()
	newOf := make(map[graph.NodeID]*graph.Node, n)
	removed := 0
	for _, nd := range g.Nodes() {
		if rep[nd.ID] != nd.ID {
			removed++
			continue
		}
		c := out.Add(nd.Op, nd.Label)
		c.Cap = nd.Cap
		c.Stream = nd.Stream
		c.Pattern = nd.Pattern
		c.Buffer = nd.Buffer
		for len(c.In) < len(nd.In) {
			out.AddGate(c)
		}
		newOf[nd.ID] = c
	}
	for _, nd := range g.Nodes() {
		if rep[nd.ID] != nd.ID {
			continue
		}
		for p, in := range nd.In {
			if in.Literal != nil {
				out.SetLiteral(newOf[nd.ID], p, *in.Literal)
			}
		}
	}
	for _, a := range g.Arcs() {
		to := g.Node(a.To)
		if rep[to.ID] != to.ID {
			continue // the representative's own input arcs stand in
		}
		from := newOf[rep[a.From]]
		na := out.ConnectGated(from, a.Gate, newOf[to.ID], a.ToPort)
		if a.Init != nil {
			out.SetInit(na, *a.Init)
		}
		na.Feedback = a.Feedback
		na.Rigid = a.Rigid
		na.Skew = a.Skew
		na.Marking = a.Marking
	}
	return out, removed
}

// dedupable reports whether merging this cell kind is sound and useful.
func dedupable(n *graph.Node) bool {
	switch n.Op {
	case graph.OpSink:
		return false // sinks are observation points, keyed by label
	case graph.OpSource:
		// Input sources are bound to data at run time; only sources that
		// already carry identical streams (compiler-materialized constants)
		// may merge, which nodeKey handles — but empty-stream sources are
		// placeholders for distinct program inputs.
		return len(n.Stream) > 0
	default:
		return true
	}
}

// nodeKey builds a structural identity string for the cell.
func nodeKey(g *graph.Graph, n *graph.Node, rep []graph.NodeID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|", n.Op, n.Cap)
	if n.Op == graph.OpSource {
		fmt.Fprintf(&b, "src:%s:", n.Label)
		for _, v := range n.Stream {
			fmt.Fprintf(&b, "%s,", v)
		}
	}
	if n.Op == graph.OpCtlGen {
		fmt.Fprintf(&b, "ctl:%s", n.Pattern)
	}
	for p, in := range n.In {
		if in.Literal != nil {
			fmt.Fprintf(&b, "|p%d=#%s", p, in.Literal)
		} else if in.Arc != nil {
			fmt.Fprintf(&b, "|p%d<-%d:g%d:s%d:i%v", p, rep[in.Arc.From], in.Arc.Gate, in.Arc.Skew, in.Arc.Init)
		} else {
			fmt.Fprintf(&b, "|p%d=?", p)
		}
	}
	return b.String()
}

// topoOrder returns node ids with every acyclic predecessor before its
// consumers; nodes on cycles appear in id order at their first possible
// position (they are never deduped, so their exact position is moot).
func topoOrder(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	state := make([]uint8, n) // 0 unvisited, 1 visiting, 2 done
	order := make([]graph.NodeID, 0, n)
	var visit func(id graph.NodeID)
	visit = func(id graph.NodeID) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		for _, in := range g.Node(id).In {
			if in.Arc != nil && state[in.Arc.From] == 0 {
				visit(in.Arc.From)
			}
		}
		state[id] = 2
		order = append(order, id)
	}
	for _, nd := range g.Nodes() {
		visit(nd.ID)
	}
	return order
}
