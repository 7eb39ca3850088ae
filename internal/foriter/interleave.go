package foriter

import (
	"fmt"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// InterleavedLinear builds the §9 delay-for-rate construction: R
// independent linear recurrences
//
//	x_i^r = a_i^r · x_{i−1}^r + b_i^r,   r = 0..R−1, i = 1..n
//
// evaluated by ONE set of loop cells, with the R rows' tokens interleaved
// round-robin through the feedback cycle. The cycle is Todd's three cells
// (MULT, ADD, MERGE) extended by a FIFO of 2R−3 stages, so it holds R
// circulating values over a length-2R cycle — the maximum rate of one
// result per two cycles. The paper's closing remark describes exactly this
// tradeoff: "a recurrence having a cyclic dependence ... may be implemented
// at the maximum rate by introducing a delay (via a FIFO buffer)", paying
// latency (each row advances once per 2R cycles) for full throughput.
//
// aNode and bNode must emit the parameters row-interleaved: stream position
// (i−1)·R + r carries (a_i^r, b_i^r). inits supplies x_0^r per row. The
// returned node emits all x values interleaved the same way, x_0 rows
// first: position i·R + r carries x_i^r, for i = 0..n.
func InterleavedLinear(g *graph.Graph, label string, rows, n int,
	aNode, bNode *graph.Node, inits []value.Value) (*graph.Node, error) {
	if rows < 2 {
		return nil, fmt.Errorf("foriter: interleaving needs at least 2 rows (one row is Todd's scheme)")
	}
	if len(inits) != rows {
		return nil, fmt.Errorf("foriter: %d initial values for %d rows", len(inits), rows)
	}
	if n < 1 {
		return nil, fmt.Errorf("foriter: need at least one step")
	}
	total := rows * n

	merge := g.Add(graph.OpMerge, "X:"+label)
	g.Connect(g.AddCtl("mctl:"+label, graph.Pattern{
		Prefix: falses(rows), Body: []bool{true}, Repeat: total,
	}), merge, 0)
	g.Connect(g.AddSource("seed:"+label, inits), merge, 2)

	mul := g.Add(graph.OpMul, "F.mul:"+label)
	add := g.Add(graph.OpAdd, "F.add:"+label)
	g.Connect(aNode, mul, 0)
	g.Connect(bNode, add, 1)
	g.Connect(mul, add, 0).Rigid = true
	// The MERGE emits the R seeds first, so its output k is the body's
	// value k−R: R circulating values.
	reentry := g.Connect(add, merge, 1)
	reentry.Rigid = true
	reentry.Marking = rows

	// Feedback through the rate-restoring FIFO: with 2R−3 buffer stages
	// the cycle spans 2R cells and carries R values.
	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl:"+label, graph.Pattern{
		Body: []bool{true}, Repeat: total, Suffix: falses(rows),
	}), merge, gp)
	fifo := g.AddFIFO("delay:"+label, 2*rows-3)
	g.ConnectGated(merge, gp, fifo, 0).Feedback = true
	g.Connect(fifo, mul, 1)
	return merge, nil
}

func falses(n int) []bool { return make([]bool, n) }
