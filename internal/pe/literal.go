package pe

import (
	"staticpipe/internal/control"
	"staticpipe/internal/graph"
)

// LiteralPattern builds a boolean control stream from literal instruction
// cells in g and returns the cell producing it. It is the graph-level
// entry point the literal-control compilation pass uses to expand
// idealized generator cells (package passes); primitive-expression
// compilation reaches the same construction through Options.LiteralControl.
func LiteralPattern(g *graph.Graph, pattern []bool, label string) *graph.Node {
	return literalPattern(g, pattern, label)
}

// literalPattern builds a boolean control stream from literal instruction
// cells: an index stream over the pattern positions, run-decomposed into
// window predicates (lo <= p & p <= hi) combined by an OR tree. This is
// Todd's "straightforward arrangement of data flow instructions" realized
// concretely; the paper's patterns have at most two runs (selection windows
// and boundary masks), so the tree stays shallow.
func literalPattern(g *graph.Graph, pattern []bool, label string) *graph.Node {
	idx := control.IndexStream(g, label+".pos", 0, int64(len(pattern)-1))

	// Decompose into maximal true-runs.
	type run struct{ lo, hi int64 }
	var runs []run
	for p := 0; p < len(pattern); {
		if !pattern[p] {
			p++
			continue
		}
		q := p
		for q+1 < len(pattern) && pattern[q+1] {
			q++
		}
		runs = append(runs, run{int64(p), int64(q)})
		p = q + 1
	}

	switch len(runs) {
	case 0:
		// All-false stream: p < 0 is false for every position.
		return control.Predicate(g, label+".never", idx, graph.OpLT, 0)
	case 1:
		if runs[0].lo == 0 && runs[0].hi == int64(len(pattern)-1) {
			// All-true stream.
			return control.Predicate(g, label+".always", idx, graph.OpGE, 0)
		}
	}

	var terms []*graph.Node
	for _, r := range runs {
		switch {
		case r.lo == 0:
			terms = append(terms, control.Predicate(g, label+".le", idx, graph.OpLE, r.hi))
		case r.hi == int64(len(pattern)-1):
			terms = append(terms, control.Predicate(g, label+".ge", idx, graph.OpGE, r.lo))
		default:
			ge := control.Predicate(g, label+".ge", idx, graph.OpGE, r.lo)
			le := control.Predicate(g, label+".le", idx, graph.OpLE, r.hi)
			and := g.Add(graph.OpAnd, label+".win")
			g.Connect(ge, and, 0)
			g.Connect(le, and, 1)
			terms = append(terms, and)
		}
	}
	for len(terms) > 1 {
		or := g.Add(graph.OpOr, label+".or")
		g.Connect(terms[0], or, 0)
		g.Connect(terms[1], or, 1)
		terms = append(terms[2:], or)
	}
	return terms[0]
}
