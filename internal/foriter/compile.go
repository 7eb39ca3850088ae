package foriter

import (
	"fmt"

	"staticpipe/internal/forall"
	"staticpipe/internal/graph"
	"staticpipe/internal/pe"
	"staticpipe/internal/val"
)

// Scheme selects the mapping strategy.
type Scheme int

const (
	// Auto uses the companion scheme when the recurrence has a recognized
	// companion function, and Todd's scheme otherwise.
	Auto Scheme = iota
	// Todd is the baseline feedback scheme of Fig 7 (rate ≤ 1/3).
	Todd
	// Companion is the fully pipelined scheme of Fig 8 (Theorem 3).
	Companion
)

func (s Scheme) String() string {
	switch s {
	case Todd:
		return "todd"
	case Companion:
		return "companion"
	default:
		return "auto"
	}
}

// Options configures compilation.
type Options struct {
	Scheme Scheme
	PE     pe.Options
}

// Out describes a compiled for-iter block: the output stream carries the
// constructed array's elements for indices Lo..Hi in order.
type Out struct {
	Node   *graph.Node
	Lo, Hi int64
	Rec    *Rec
	// Used records which scheme was actually applied.
	Used Scheme
}

// xprevName is the internal binding for the recurrence reference X[i−1].
const xprevName = "\x00xprev"

// Compile translates a primitive for-iter construct into the graph.
func Compile(g *graph.Graph, fi *val.ForIter, params map[string]int64,
	arrays map[string]forall.Input, opts Options) (*Out, error) {
	rec, err := Extract(fi, params)
	if err != nil {
		return nil, err
	}
	scheme := opts.Scheme
	if scheme == Auto {
		if rec.Kind != KindGeneral && rec.N() >= 2 {
			scheme = Companion
		} else {
			scheme = Todd
		}
	}
	if scheme == Companion {
		if rec.Kind == KindGeneral {
			return nil, fmt.Errorf("foriter: no companion function is known for this recurrence (%s); use Todd's scheme", rec.Val)
		}
		if rec.N() < 2 {
			scheme = Todd // a single computed element has no distance-2 form
		}
	}
	var node *graph.Node
	if scheme == Companion {
		node, err = compileCompanion(g, rec, params, arrays, opts.PE)
	} else {
		node, err = compileTodd(g, rec, params, arrays, opts.PE)
	}
	if err != nil {
		return nil, err
	}
	return &Out{Node: node, Lo: rec.R, Hi: rec.Q, Rec: rec, Used: scheme}, nil
}

// compileInit compiles the seed expression E0 as a single value, returning
// a constant or a one-element stream.
func compileInit(g *graph.Graph, rec *Rec, params map[string]int64,
	arrays map[string]forall.Input, peOpts pe.Options) (pe.Result, error) {
	b := pe.NewBuilder(g, rec.Counter, rec.R, rec.R, params, peOpts)
	for name, in := range arrays {
		if in.TwoD {
			b.BindArray2(name, in.Node, in.Lo, in.Hi, in.Lo2, in.Hi2)
		} else {
			b.BindArray(name, in.Node, in.Lo, in.Hi)
		}
	}
	r, err := b.Compile(rec.Init)
	if err != nil {
		return pe.Result{}, fmt.Errorf("foriter: seed expression: %w", err)
	}
	return r, nil
}

// connectResult wires a compile result into a port, returning the arc it
// made (nil for a constant, which becomes a literal operand).
func connectResult(g *graph.Graph, r pe.Result, n *graph.Node, port int) *graph.Arc {
	if r.IsConst() {
		g.SetLiteral(n, port, *r.Const)
		return nil
	}
	return g.Connect(r.Node, n, port)
}

// compileTodd emits the Fig 7 scheme: the body pipeline F with a gated
// feedback arc from the result MERGE to the x_{i−1} uses. For Example 2 —
// MULT, ADD, MERGE — the feedback cycle has three cells and one circulating
// value, so the loop's initiation interval is 3 (the paper's 1/3 rate).
func compileTodd(g *graph.Graph, rec *Rec, params map[string]int64,
	arrays map[string]forall.Input, peOpts pe.Options) (*graph.Node, error) {
	n := rec.N()
	merge := g.Add(graph.OpMerge, "X:"+rec.X)
	g.Connect(g.AddCtl("mctl:"+rec.X, graph.Pattern{
		Prefix: []bool{false}, Body: []bool{true}, Repeat: n,
	}), merge, 0)

	initR, err := compileInit(g, rec, params, arrays, peOpts)
	if err != nil {
		return nil, err
	}
	connectResult(g, initR, merge, 2)

	// The body pipeline, with X[i−1] bound to the merge's output.
	body := replaceXRef(rec.Val, rec.X)
	b := pe.NewBuilder(g, rec.Counter, rec.P, rec.Q, params, peOpts)
	for name, in := range arrays {
		if in.TwoD {
			b.BindArray2(name, in.Node, in.Lo, in.Hi, in.Lo2, in.Hi2)
		} else {
			b.BindArray(name, in.Node, in.Lo, in.Hi)
		}
	}
	b.BindScalar(xprevName, merge)
	feedbackFrom := len(merge.Out)
	valR, err := b.Compile(body)
	if err != nil {
		return nil, fmt.Errorf("foriter: loop body: %w", err)
	}
	// The MERGE emits the seed before its first loop value, so its output
	// k is the body's value k−1: one circulating value (Fig 7).
	if reentry := connectResult(g, valR, merge, 1); reentry != nil {
		reentry.Marking = 1
	}

	// Gate the feedback arcs with the output switch control <T..TF> and
	// mark them as loop feedback.
	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl:"+rec.X, graph.Pattern{
		Body: []bool{true}, Repeat: n, Suffix: []bool{false},
	}), merge, gp)
	for _, a := range merge.Out[feedbackFrom:] {
		a.Gate = gp
		a.Feedback = true
	}
	markLoopRigid(g, merge)
	return merge, nil
}

// replaceXRef rewrites references X[i−1] into uses of the internal
// feedback binding.
func replaceXRef(e val.Expr, x string) val.Expr {
	switch n := e.(type) {
	case *val.Index:
		if n.Array == x {
			return &val.Name{Ident: xprevName}
		}
		return e
	case *val.Unary:
		cp := *n
		cp.E = replaceXRef(n.E, x)
		return &cp
	case *val.Binary:
		cp := *n
		cp.L = replaceXRef(n.L, x)
		cp.R = replaceXRef(n.R, x)
		return &cp
	case *val.If:
		cp := *n
		cp.Cond = replaceXRef(n.Cond, x)
		cp.Then = replaceXRef(n.Then, x)
		cp.Else = replaceXRef(n.Else, x)
		return &cp
	case *val.Let:
		cp := *n
		cp.Defs = append([]val.Def(nil), n.Defs...)
		for i := range cp.Defs {
			cp.Defs[i].Init = replaceXRef(cp.Defs[i].Init, x)
		}
		cp.Body = replaceXRef(n.Body, x)
		return &cp
	default:
		return e
	}
}

// markLoopRigid marks every arc lying between two cells of the feedback
// strongly-connected component as rigid: buffering them would lengthen the
// loop cycle and change its rate.
func markLoopRigid(g *graph.Graph, loopNode *graph.Node) {
	fwd := reach(g, loopNode, false)
	bwd := reach(g, loopNode, true)
	for _, a := range g.Arcs() {
		if a.Feedback {
			continue
		}
		if fwd[a.From] && bwd[a.From] && fwd[a.To] && bwd[a.To] {
			a.Rigid = true
		}
	}
}

// reach computes forward or reverse reachability from n over all arcs.
func reach(g *graph.Graph, n *graph.Node, reverse bool) map[graph.NodeID]bool {
	adj := make([][]graph.NodeID, g.NumNodes())
	for _, a := range g.Arcs() {
		if reverse {
			adj[a.To] = append(adj[a.To], a.From)
		} else {
			adj[a.From] = append(adj[a.From], a.To)
		}
	}
	seen := map[graph.NodeID]bool{n.ID: true}
	stack := []graph.NodeID{n.ID}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// cellOp applies a two-operand cell (or constant-folds).
func cellOp(g *graph.Graph, op graph.Op, vop val.Op, l, r pe.Result, label string) pe.Result {
	if l.IsConst() && r.IsConst() {
		v, err := val.ApplyBinary(vop, *l.Const, *r.Const)
		if err == nil {
			return pe.Result{Const: &v}
		}
	}
	n := g.Add(op, label)
	connectResult(g, l, n, 0)
	connectResult(g, r, n, 1)
	return pe.Result{Node: n}
}

// window selects stream positions posLo..posHi of an n-position stream,
// recording the grid skew (posLo) on the data and control arcs: the gate
// consumes control position j+posLo for wave j just as it does data.
// Constants pass through unchanged.
func window(g *graph.Graph, r pe.Result, posLo, posHi, total int, label string) pe.Result {
	if r.IsConst() {
		return r
	}
	gate := g.Add(graph.OpTGate, label)
	ctl := g.Connect(g.AddCtl("ctl:"+label, graph.Pattern{
		Prefix: make([]bool, posLo),
		Body:   []bool{true}, Repeat: posHi - posLo + 1,
		Suffix: make([]bool, total-posHi-1),
	}), gate, 0)
	g.Connect(r.Node, gate, 1).Skew = posLo
	ctl.Skew = posLo
	return pe.Result{Node: gate}
}

// compileCompanion emits the Fig 8 scheme for companion-bearing
// recurrences: an acyclic companion pipeline computes the distance-2
// parameters c_i = G(a_i, a_{i−1}); the main loop evaluates
// x_i = F(c_i, x_{i−2}) around a four-cell cycle (F's cells, a padding
// identity, and the MERGE) carrying two circulating values — the maximum
// rate. The two seeds x_{P−1} = E0 and x_P = F(a_P, x_{P−1}) are produced
// by a small acyclic "code for initial values" circuit.
func compileCompanion(g *graph.Graph, rec *Rec, params map[string]int64,
	arrays map[string]forall.Input, peOpts pe.Options) (*graph.Node, error) {
	n := rec.N() // elements P..Q; the loop computes n−1 of them

	b := pe.NewBuilder(g, rec.Counter, rec.P, rec.Q, params, peOpts)
	for name, in := range arrays {
		if in.TwoD {
			b.BindArray2(name, in.Node, in.Lo, in.Hi, in.Lo2, in.Hi2)
		} else {
			b.BindArray(name, in.Node, in.Lo, in.Hi)
		}
	}

	initR, err := compileInit(g, rec, params, arrays, peOpts)
	if err != nil {
		return nil, err
	}

	var c1, c2, xP pe.Result
	switch rec.Kind {
	case KindLinear:
		aR, err := b.Compile(rec.AExpr)
		if err != nil {
			return nil, fmt.Errorf("foriter: coefficient %s: %w", rec.AExpr, err)
		}
		bExpr := rec.BExpr
		if bExpr == nil {
			bExpr = &val.IntLit{Val: 0}
		}
		bR, err := b.Compile(bExpr)
		if err != nil {
			return nil, fmt.Errorf("foriter: coefficient %s: %w", bExpr, err)
		}
		aCur := window(g, aR, 1, n-1, n, "a[i]")
		aPrev := window(g, aR, 0, n-2, n, "a[i-1]")
		aFirst := window(g, aR, 0, 0, n, "a[P]")
		bCur := window(g, bR, 1, n-1, n, "b[i]")
		bPrev := window(g, bR, 0, n-2, n, "b[i-1]")
		bFirst := window(g, bR, 0, 0, n, "b[P]")
		// companion: c(1) = a_i·a_{i−1}, c(2) = a_i·b_{i−1} + b_i
		c1 = cellOp(g, graph.OpMul, val.OpMul, aCur, aPrev, "c1")
		c2 = cellOp(g, graph.OpAdd, val.OpAdd,
			cellOp(g, graph.OpMul, val.OpMul, aCur, bPrev, "c2.mul"), bCur, "c2")
		// seed x_P = a_P·x_{P−1} + b_P
		xP = cellOp(g, graph.OpAdd, val.OpAdd,
			cellOp(g, graph.OpMul, val.OpMul, aFirst, initR, "xP.mul"), bFirst, "xP")

	case KindScanMin, KindScanMax:
		op, vop := graph.OpMin, val.OpMin
		if rec.Kind == KindScanMax {
			op, vop = graph.OpMax, val.OpMax
		}
		bR, err := b.Compile(rec.ScanArg)
		if err != nil {
			return nil, fmt.Errorf("foriter: scan argument %s: %w", rec.ScanArg, err)
		}
		bCur := window(g, bR, 1, n-1, n, "b[i]")
		bPrev := window(g, bR, 0, n-2, n, "b[i-1]")
		bFirst := window(g, bR, 0, 0, n, "b[P]")
		c1 = cellOp(g, op, vop, bCur, bPrev, "c") // G = op itself
		xP = cellOp(g, op, vop, bFirst, initR, "xP")

	default:
		return nil, fmt.Errorf("foriter: internal error: companion scheme on %s recurrence", rec.Kind)
	}

	// Seed injector: x_{P−1} then x_P.
	seed := g.Add(graph.OpMerge, "seed:"+rec.X)
	g.Connect(g.AddCtl("sctl:"+rec.X, graph.Pattern{Prefix: []bool{true, false}}), seed, 0)
	connectResult(g, initR, seed, 1)
	connectResult(g, xP, seed, 2)

	// Main loop: F(c_i, x_{i−2}) → padding ID → MERGE, with a gated
	// feedback of distance two.
	merge := g.Add(graph.OpMerge, "X:"+rec.X)
	g.Connect(g.AddCtl("mctl:"+rec.X, graph.Pattern{
		Prefix: []bool{false, false}, Body: []bool{true}, Repeat: n - 1,
	}), merge, 0)
	g.Connect(seed, merge, 2)

	pad := g.Add(graph.OpID, "pad:"+rec.X)
	var loopHead *graph.Node // the cell receiving the feedback
	var rigid []*graph.Arc
	if rec.Kind == KindLinear {
		mul := g.Add(graph.OpMul, "F.mul")
		add := g.Add(graph.OpAdd, "F.add")
		connectResult(g, c1, mul, 0)
		connectResult(g, c2, add, 1)
		rigid = append(rigid, g.Connect(mul, add, 0))
		rigid = append(rigid, g.Connect(add, pad, 0))
		loopHead = mul
	} else {
		op := graph.OpMin
		if rec.Kind == KindScanMax {
			op = graph.OpMax
		}
		f := g.Add(op, "F.op")
		pad2 := g.Add(graph.OpID, "pad2:"+rec.X)
		connectResult(g, c1, f, 0)
		rigid = append(rigid, g.Connect(f, pad2, 0))
		rigid = append(rigid, g.Connect(pad2, pad, 0))
		loopHead = f
	}
	// The MERGE emits both seeds before its first loop value, so its
	// output k is the padding cell's value k−2: two circulating values
	// (Fig 8, distance-2 recurrence).
	reentry := g.Connect(pad, merge, 1)
	reentry.Marking = 2
	rigid = append(rigid, reentry)
	for _, a := range rigid {
		a.Rigid = true
	}

	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl:"+rec.X, graph.Pattern{
		Body: []bool{true}, Repeat: n - 1, Suffix: []bool{false, false},
	}), merge, gp)
	g.ConnectGated(merge, gp, loopHead, 1).Feedback = true
	return merge, nil
}
