// Package pe classifies and compiles the paper's primitive expressions
// (§5, Theorem 1): the restricted Val expressions — literals, scalar
// identifiers, operator applications, array element selections A[i±k],
// let-in, and if-then-else — that admit fully pipelined acyclic instruction
// graphs.
//
// Compilation follows the constructions of Figs 4–5:
//
//   - an array reference A[i+k] becomes a boolean-gated selection of the
//     needed window of the array's element stream, discarding unused
//     elements "so they do not cause jams";
//   - a conditional routes each arm's input streams through T/F gates
//     controlled by the condition stream and recombines the arm results
//     with a MERGE cell;
//   - conditions (and selection windows) that depend only on the index
//     variable and compile-time constants are evaluated at compile time
//     into Todd-style control patterns, exactly as the paper's figures
//     show precomputed <FT..TF> streams rather than runtime comparisons.
//
// The emitted graph is not yet balanced; callers apply package balance to
// obtain the fully pipelined form (Theorem 1's FIFO insertion).
package pe

import (
	"fmt"

	"staticpipe/internal/graph"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// NotPrimitiveError reports that an expression falls outside the primitive
// class of §5 and why.
type NotPrimitiveError struct {
	Pos    val.Pos
	Reason string
}

func (e *NotPrimitiveError) Error() string {
	return fmt.Sprintf("pe: %s: not a primitive expression: %s", e.Pos, e.Reason)
}

func notPrim(p val.Pos, format string, args ...any) error {
	return &NotPrimitiveError{Pos: p, Reason: fmt.Sprintf(format, args...)}
}

// Result is the outcome of compiling a (sub)expression: either a stream-
// producing cell or a compile-time constant (which parents embed as a
// literal operand — the static architecture stores constants in instruction
// cells).
type Result struct {
	Node  *graph.Node
	Const *value.Value
}

// IsConst reports whether the result is a compile-time constant.
func (r Result) IsConst() bool { return r.Const != nil }

// Options configures compilation.
type Options struct {
	// LiteralControl emits control streams and index streams as literal
	// instruction subgraphs (package control's counter/alternator
	// constructions) instead of idealized generator cells. The literal
	// subgraphs leave residual tokens at quiescence (see control.Alternator).
	LiteralControl bool
}

// binding is a named stream or constant visible to the expression being
// compiled.
type binding struct {
	node  *graph.Node
	konst *value.Value
	depth int // selection depth at which the stream was produced
}

// selLayer is one enclosing conditional arm: streams crossing into the arm
// are gated by ctl with the given polarity. If the selected index
// subsequence is statically known it is recorded for pattern fusion.
type selLayer struct {
	ctl  *graph.Node
	keep bool
	idxs []int64 // nil when the condition is data-dependent
}

// arrayInfo is a bound input array stream. Two-dimensional arrays (w > 0)
// arrive row-major over [lo,hi]×[lo2,lo2+w−1].
type arrayInfo struct {
	src    *graph.Node
	lo, hi int64
	lo2    int64
	w      int64 // second-dimension width; 0 = one-dimensional
}

func (a arrayInfo) total() int64 {
	n := a.hi - a.lo + 1
	if a.w > 0 {
		n *= a.w
	}
	return n
}

// Builder compiles primitive expressions over a fixed iteration space —
// one index variable, or two for the §9 two-dimensional extension (the
// space is then traversed row-major). Internally the space is a sequence
// of positions p = 0..N−1 from which the index values derive.
type Builder struct {
	G        *graph.Graph
	indexVar string
	lo, hi   int64
	// second index variable ("" when one-dimensional)
	indexVar2 string
	lo2, hi2  int64

	params map[string]int64
	opts   Options

	arrays  map[string]arrayInfo
	scalars map[string]binding
	sel     []selLayer
}

// NewBuilder returns a builder for primitive expressions on indexVar, with
// the index ranging lo..hi. params supplies compile-time constants.
func NewBuilder(g *graph.Graph, indexVar string, lo, hi int64, params map[string]int64, opts Options) *Builder {
	if hi < lo {
		panic(fmt.Sprintf("pe: empty iteration space [%d, %d]", lo, hi))
	}
	return &Builder{
		G: g, indexVar: indexVar, lo: lo, hi: hi,
		params:  params,
		opts:    opts,
		arrays:  map[string]arrayInfo{},
		scalars: map[string]binding{},
	}
}

// NewBuilder2 returns a builder over the two-dimensional iteration space
// [lo,hi]×[lo2,hi2], traversed row-major (iv varies slowest).
func NewBuilder2(g *graph.Graph, iv string, lo, hi int64, iv2 string, lo2, hi2 int64,
	params map[string]int64, opts Options) *Builder {
	if hi < lo || hi2 < lo2 {
		panic(fmt.Sprintf("pe: empty iteration space [%d, %d]×[%d, %d]", lo, hi, lo2, hi2))
	}
	if iv == iv2 {
		panic("pe: the two index variables must differ")
	}
	b := NewBuilder(g, iv, lo, hi, params, opts)
	b.indexVar2 = iv2
	b.lo2, b.hi2 = lo2, hi2
	return b
}

// rows and cols describe the iteration space; cols is 1 when 1-D.
func (b *Builder) rows() int64 { return b.hi - b.lo + 1 }
func (b *Builder) cols() int64 {
	if b.indexVar2 == "" {
		return 1
	}
	return b.hi2 - b.lo2 + 1
}

// N returns the iteration count.
func (b *Builder) N() int { return int(b.rows() * b.cols()) }

// ivAt returns the index values at iteration position p.
func (b *Builder) ivAt(p int64) (i, j int64) {
	if b.indexVar2 == "" {
		return b.lo + p, 0
	}
	c := b.cols()
	return b.lo + p/c, b.lo2 + p%c
}

// BindArray makes an array's element stream (indices alo..ahi arriving in
// order from src) available to references A[i±k].
func (b *Builder) BindArray(name string, src *graph.Node, alo, ahi int64) {
	b.arrays[name] = arrayInfo{src: src, lo: alo, hi: ahi}
}

// BindArray2 makes a two-dimensional array's row-major element stream
// available to references A[i±k, j±l].
func (b *Builder) BindArray2(name string, src *graph.Node, alo, ahi, alo2, ahi2 int64) {
	b.arrays[name] = arrayInfo{src: src, lo: alo, hi: ahi, lo2: alo2, w: ahi2 - alo2 + 1}
}

// BindScalar makes a per-iteration scalar stream available under name.
func (b *Builder) BindScalar(name string, src *graph.Node) {
	b.scalars[name] = binding{node: src, depth: len(b.sel)}
}

// curIdxs returns the iteration positions (0..N−1 based) selected by the
// current layers, or nil if any enclosing condition is data-dependent.
func (b *Builder) curIdxs() []int64 {
	if len(b.sel) == 0 {
		out := make([]int64, b.N())
		for p := range out {
			out[p] = int64(p)
		}
		return out
	}
	return b.sel[len(b.sel)-1].idxs
}

// Compile translates a primitive expression into the graph, returning its
// stream (or constant). It returns a *NotPrimitiveError for expressions
// outside the §5 class.
func (b *Builder) Compile(e val.Expr) (Result, error) {
	switch x := e.(type) {
	case *val.IntLit:
		v := value.I(x.Val)
		return Result{Const: &v}, nil
	case *val.RealLit:
		v := value.R(x.F)
		return Result{Const: &v}, nil
	case *val.BoolLit:
		v := value.B(x.Val)
		return Result{Const: &v}, nil

	case *val.Name:
		if x.Ident == b.indexVar {
			return Result{Node: b.indexStream(1)}, nil
		}
		if b.indexVar2 != "" && x.Ident == b.indexVar2 {
			return Result{Node: b.indexStream(2)}, nil
		}
		if v, ok := b.params[x.Ident]; ok {
			c := value.I(v)
			return Result{Const: &c}, nil
		}
		if bind, ok := b.scalars[x.Ident]; ok {
			if bind.konst != nil {
				return Result{Const: bind.konst}, nil
			}
			return Result{Node: b.applySel(bind.node, bind.depth)}, nil
		}
		if _, isArr := b.arrays[x.Ident]; isArr {
			return Result{}, notPrim(x.Pos(), "array %s used without a subscript", x.Ident)
		}
		return Result{}, notPrim(x.Pos(), "unbound identifier %s", x.Ident)

	case *val.Unary:
		in, err := b.Compile(x.E)
		if err != nil {
			return Result{}, err
		}
		if in.IsConst() {
			v, err := foldUnary(x.Op, *in.Const)
			if err != nil {
				return Result{}, notPrim(x.Pos(), "%v", err)
			}
			return Result{Const: &v}, nil
		}
		op, ok := unaryOp(x.Op)
		if !ok {
			return Result{}, notPrim(x.Pos(), "unary operator %s unsupported", x.Op)
		}
		n := b.G.Add(op, "")
		b.connect(in, n, 0)
		return Result{Node: n}, nil

	case *val.Binary:
		l, err := b.Compile(x.L)
		if err != nil {
			return Result{}, err
		}
		r, err := b.Compile(x.R)
		if err != nil {
			return Result{}, err
		}
		if l.IsConst() && r.IsConst() {
			v, err := val.ApplyBinary(x.Op, *l.Const, *r.Const)
			if err != nil {
				return Result{}, notPrim(x.Pos(), "%v", err)
			}
			return Result{Const: &v}, nil
		}
		op, ok := binaryOp(x.Op)
		if !ok {
			return Result{}, notPrim(x.Pos(), "operator %s unsupported", x.Op)
		}
		n := b.G.Add(op, "")
		b.connect(l, n, 0)
		b.connect(r, n, 1)
		return Result{Node: n}, nil

	case *val.Index:
		return b.compileArrayRef(x)

	case *val.Let:
		saved := map[string]*binding{}
		for _, d := range x.Defs {
			r, err := b.Compile(d.Init)
			if err != nil {
				return Result{}, err
			}
			// Remember any shadowed binding for restoration.
			if old, ok := b.scalars[d.Name]; ok {
				o := old
				saved[d.Name] = &o
			} else {
				saved[d.Name] = nil
			}
			// Constant definitions stay constants (literal operands at
			// their uses); only stream-producing definitions bind nodes.
			if r.IsConst() {
				b.scalars[d.Name] = binding{konst: r.Const, depth: len(b.sel)}
			} else {
				b.scalars[d.Name] = binding{node: r.Node, depth: len(b.sel)}
			}
		}
		res, err := b.Compile(x.Body)
		for name, old := range saved {
			if old == nil {
				delete(b.scalars, name)
			} else {
				b.scalars[name] = *old
			}
		}
		return res, err

	case *val.If:
		return b.compileIf(x)

	case *val.Forall:
		return Result{}, notPrim(x.Pos(), "nested forall")
	case *val.ForIter:
		return Result{}, notPrim(x.Pos(), "nested for-iter")
	case *val.Append, *val.ArrayInit:
		return Result{}, notPrim(e.Pos(), "array constructor operation")
	case *val.Iter:
		return Result{}, notPrim(x.Pos(), "iter clause")
	default:
		return Result{}, notPrim(e.Pos(), "unsupported form %T", e)
	}
}

// CompileStream compiles e and forces the result to a stream-producing
// node: a constant becomes a generator emitting the constant once per
// (selected) iteration.
func (b *Builder) CompileStream(e val.Expr) (*graph.Node, error) {
	r, err := b.Compile(e)
	if err != nil {
		return nil, err
	}
	return b.materialize(r, ""), nil
}

// materialize turns a Result into a node. It is only reachable at
// statically known selection depths (let definitions bind constants as
// constants, and a constant if-condition selects its arm directly), so the
// stream count is always known.
func (b *Builder) materialize(r Result, label string) *graph.Node {
	if !r.IsConst() {
		return r.Node
	}
	idxs := b.curIdxs()
	if idxs == nil {
		panic("pe: internal error: constant stream under data-dependent selection")
	}
	stream := make([]value.Value, len(idxs))
	for i := range stream {
		stream[i] = *r.Const
	}
	return b.G.AddSource("const:"+label, stream)
}

// connect wires a result into port p of node n (literal or arc).
func (b *Builder) connect(r Result, n *graph.Node, p int) {
	if r.IsConst() {
		b.G.SetLiteral(n, p, *r.Const)
		return
	}
	b.G.Connect(r.Node, n, p)
}

// ivValues maps iteration positions to the values of index variable dim.
func (b *Builder) ivValues(positions []int64, dim int) []int64 {
	out := make([]int64, len(positions))
	for k, p := range positions {
		i, j := b.ivAt(p)
		if dim == 1 {
			out[k] = i
		} else {
			out[k] = j
		}
	}
	return out
}

func (b *Builder) ivName(dim int) string {
	if dim == 2 {
		return b.indexVar2
	}
	return b.indexVar
}

// indexStream returns a stream of an index variable's selected values.
func (b *Builder) indexStream(dim int) *graph.Node {
	idxs := b.curIdxs()
	if idxs == nil {
		// Data-dependent selection: produce the base stream at depth 0 and
		// gate it through the layers.
		base := b.baseIndexStream(dim)
		return b.applySel(base, 0)
	}
	vals := b.ivValues(idxs, dim)
	if b.opts.LiteralControl && contiguous(vals) {
		return literalIndexStream(b.G, vals)
	}
	return b.G.AddSource(fmt.Sprintf("i:%s", b.ivName(dim)), value.Ints(vals))
}

// baseIndexStream emits the full unselected value sequence of variable dim.
func (b *Builder) baseIndexStream(dim int) *graph.Node {
	positions := make([]int64, b.N())
	for p := range positions {
		positions[p] = int64(p)
	}
	vals := b.ivValues(positions, dim)
	if b.opts.LiteralControl && contiguous(vals) {
		return literalIndexStream(b.G, vals)
	}
	return b.G.AddSource(fmt.Sprintf("i:%s", b.ivName(dim)), value.Ints(vals))
}

func contiguous(idxs []int64) bool {
	for i := 1; i < len(idxs); i++ {
		if idxs[i] != idxs[i-1]+1 {
			return false
		}
	}
	return len(idxs) > 0
}

// applySel gates a stream produced at the given depth through the enclosing
// selection layers so it arrives on the current subsequence.
func (b *Builder) applySel(node *graph.Node, fromDepth int) *graph.Node {
	for d := fromDepth; d < len(b.sel); d++ {
		layer := b.sel[d]
		op := graph.OpTGate
		if !layer.keep {
			op = graph.OpFGate
		}
		gate := b.G.Add(op, "sel")
		b.G.Connect(layer.ctl, gate, 0)
		b.G.Connect(node, gate, 1)
		node = gate
	}
	return node
}

// compileArrayRef compiles A[i+k] (or A[i+k, j+l] for two-dimensional
// arrays) into a gated window selection of A's element stream (Fig 4).
// When every enclosing condition is static the window and the conditions
// fuse into a single selection pattern.
func (b *Builder) compileArrayRef(x *val.Index) (Result, error) {
	info, ok := b.arrays[x.Array]
	if !ok {
		if _, isScalar := b.scalars[x.Array]; isScalar {
			return Result{}, notPrim(x.Pos(), "%s is not an array", x.Array)
		}
		return Result{}, notPrim(x.Pos(), "unbound array %s", x.Array)
	}
	twoDRef := x.Sub2 != nil
	if twoDRef != (info.w > 0) {
		return Result{}, notPrim(x.Pos(), "subscript count does not match the rank of %s", x.Array)
	}
	if twoDRef && b.indexVar2 == "" {
		return Result{}, notPrim(x.Pos(), "two-dimensional reference outside a two-dimensional forall")
	}
	if !twoDRef && b.indexVar2 != "" {
		// A vector reference inside a 2-D iteration would require each
		// element to be replicated across a row — a broadcast, not a
		// selection; outside the implemented subset.
		return Result{}, notPrim(x.Pos(), "one-dimensional array %s referenced inside a two-dimensional forall", x.Array)
	}
	k, ok := b.offsetOf(x.Sub, b.indexVar)
	if !ok {
		return Result{}, notPrim(x.Sub.Pos(), "subscript must have the form %s±constant", b.indexVar)
	}
	var l int64
	if twoDRef {
		if l, ok = b.offsetOf(x.Sub2, b.indexVar2); !ok {
			return Result{}, notPrim(x.Sub2.Pos(), "subscript must have the form %s±constant", b.indexVar2)
		}
	}

	// streamPos maps iteration position p to the referenced element's
	// position in A's stream, or an error when out of range.
	streamPos := func(p int64) (int64, error) {
		i, j := b.ivAt(p)
		if !twoDRef {
			a := i + k
			if a < info.lo || a > info.hi {
				return 0, notPrim(x.Pos(), "%s[%s%+d] reaches index %d outside the array's range [%d, %d]",
					x.Array, b.indexVar, k, a, info.lo, info.hi)
			}
			return a - info.lo, nil
		}
		ai, aj := i+k, j+l
		hi2 := info.lo2 + info.w - 1
		if ai < info.lo || ai > info.hi || aj < info.lo2 || aj > hi2 {
			return 0, notPrim(x.Pos(), "%s[%s%+d, %s%+d] reaches (%d, %d) outside [%d, %d]×[%d, %d]",
				x.Array, b.indexVar, k, b.indexVar2, l, ai, aj, info.lo, info.hi, info.lo2, hi2)
		}
		return (ai-info.lo)*info.w + (aj - info.lo2), nil
	}
	label := fmt.Sprintf("%s[%s%+d]", x.Array, b.indexVar, k)
	if twoDRef {
		label = fmt.Sprintf("%s[%s%+d,%s%+d]", x.Array, b.indexVar, k, b.indexVar2, l)
	}

	idxs := b.curIdxs()
	positions := idxs
	dynamic := idxs == nil
	if dynamic {
		// Dynamic enclosing selection: select the full base window first,
		// then gate through the dynamic layers like any other stream.
		positions = make([]int64, b.N())
		for p := range positions {
			positions[p] = int64(p)
		}
	}
	pattern := make([]bool, info.total())
	for _, p := range positions {
		sp, err := streamPos(p)
		if err != nil {
			return Result{}, err
		}
		pattern[sp] = true
	}
	gate := b.G.Add(graph.OpTGate, label)
	ctl := b.G.Connect(b.ctlStream(pattern, gate.Label), gate, 0)
	data := b.G.Connect(info.src, gate, 1)
	// The gate's output for iteration wave p comes from array stream
	// position p + shift: record the grid skew for balancing, evaluated at
	// the base position without range checks (a sparse selection may not
	// include position 0, but the uniform shift is what balancing needs).
	// For two-dimensional windows the shift is taken at the first
	// position; references into equal-width arrays share the residual
	// row-boundary jitter, so their relative skews stay exact. The control
	// stream runs on the array's grid too, so its arc carries the same
	// skew: a generator shared by gates of different shift (Dedup) is then
	// levelled where each gate consumes it.
	i0, j0 := b.ivAt(0)
	if twoDRef {
		data.Skew = int((i0+k-info.lo)*info.w + (j0 + l - info.lo2))
	} else {
		data.Skew = int(i0 + k - info.lo)
	}
	ctl.Skew = data.Skew
	if dynamic {
		return Result{Node: b.applySel(gate, 0)}, nil
	}
	return Result{Node: gate}, nil
}

// ctlStream emits a boolean control stream for the given pattern, either as
// an idealized generator cell or as a literal comparison subgraph.
func (b *Builder) ctlStream(pattern []bool, label string) *graph.Node {
	if !b.opts.LiteralControl {
		return b.G.AddCtl("ctl:"+label, packPattern(pattern))
	}
	return literalPattern(b.G, pattern, label)
}

// packPattern compresses a boolean slice into prefix/body/suffix run form
// where profitable (pure cosmetics for DOT output; At() behaves the same).
func packPattern(bs []bool) graph.Pattern {
	return graph.Pattern{Prefix: append([]bool(nil), bs...)}
}

// offsetOf recognizes subscripts of the form v, v+c, v-c, c+v for the
// given index variable (rule 4 of the §5 definition), returning the
// constant offset.
func (b *Builder) offsetOf(e val.Expr, iv string) (int64, bool) {
	switch x := e.(type) {
	case *val.Name:
		if x.Ident == iv {
			return 0, true
		}
	case *val.Binary:
		if x.Op != val.OpAdd && x.Op != val.OpSub {
			return 0, false
		}
		if n, ok := x.L.(*val.Name); ok && n.Ident == iv {
			if c, err := val.EvalConst(x.R, b.params); err == nil {
				if x.Op == val.OpSub {
					return -c, true
				}
				return c, true
			}
		}
		if x.Op == val.OpAdd {
			if n, ok := x.R.(*val.Name); ok && n.Ident == iv {
				if c, err := val.EvalConst(x.L, b.params); err == nil {
					return c, true
				}
			}
		}
	}
	return 0, false
}

// compileIf compiles a conditional per Fig 5: gates on each arm's stream
// inputs and a MERGE recombining the results. Conditions over the index
// variable and constants are evaluated at compile time into control
// patterns.
func (b *Builder) compileIf(x *val.If) (Result, error) {
	idxs := b.curIdxs()
	var (
		ctl      *graph.Node
		thenIdxs []int64
		elseIdxs []int64
	)
	if bools, ok := b.staticBools(x.Cond, idxs); ok {
		ctl = b.ctlStream(bools, "cond")
		// Non-nil even when empty: an arm selected for no index at all is
		// still statically known (its gates discard everything), which is
		// distinct from a data-dependent selection (nil).
		thenIdxs = []int64{}
		elseIdxs = []int64{}
		for j, keep := range bools {
			if keep {
				thenIdxs = append(thenIdxs, idxs[j])
			} else {
				elseIdxs = append(elseIdxs, idxs[j])
			}
		}
	} else {
		cr, err := b.Compile(x.Cond)
		if err != nil {
			return Result{}, err
		}
		if cr.IsConst() {
			// A constant condition selects one arm outright; no gating.
			if cr.Const.AsBool() {
				return b.Compile(x.Then)
			}
			return b.Compile(x.Else)
		}
		ctl = cr.Node
	}

	compileArm := func(arm val.Expr, keep bool, armIdxs []int64) (Result, error) {
		// Constant arms stay literal merge operands; only stream-producing
		// arms need a selection layer.
		b.sel = append(b.sel, selLayer{ctl: ctl, keep: keep, idxs: armIdxs})
		defer func() { b.sel = b.sel[:len(b.sel)-1] }()
		return b.Compile(arm)
	}

	thenR, err := compileArm(x.Then, true, thenIdxs)
	if err != nil {
		return Result{}, err
	}
	elseR, err := compileArm(x.Else, false, elseIdxs)
	if err != nil {
		return Result{}, err
	}

	merge := b.G.Add(graph.OpMerge, "if")
	b.G.Connect(ctl, merge, 0)
	b.connect(thenR, merge, 1)
	b.connect(elseR, merge, 2)
	return Result{Node: merge}, nil
}

// staticBools evaluates a condition at compile time for each iteration
// position in idxs. It succeeds only when the condition involves nothing
// but the index variables, parameters, and literals.
func (b *Builder) staticBools(e val.Expr, idxs []int64) ([]bool, bool) {
	if idxs == nil || !b.staticExpr(e) {
		return nil, false
	}
	out := make([]bool, len(idxs))
	for k, p := range idxs {
		v, err := b.evalStatic(e, p)
		if err != nil || v.Kind() != value.Bool {
			return nil, false
		}
		out[k] = v.AsBool()
	}
	return out, true
}

// staticExpr reports whether e references only the index variables,
// parameters, and literals.
func (b *Builder) staticExpr(e val.Expr) bool {
	switch x := e.(type) {
	case *val.IntLit, *val.RealLit, *val.BoolLit:
		return true
	case *val.Name:
		if x.Ident == b.indexVar || (b.indexVar2 != "" && x.Ident == b.indexVar2) {
			return true
		}
		_, isParam := b.params[x.Ident]
		return isParam
	case *val.Unary:
		return b.staticExpr(x.E)
	case *val.Binary:
		return b.staticExpr(x.L) && b.staticExpr(x.R)
	case *val.If:
		return b.staticExpr(x.Cond) && b.staticExpr(x.Then) && b.staticExpr(x.Else)
	default:
		return false
	}
}

// evalStatic evaluates a static expression at iteration position p, with
// the index variables bound to their values there.
func (b *Builder) evalStatic(e val.Expr, p int64) (value.Value, error) {
	switch x := e.(type) {
	case *val.IntLit:
		return value.I(x.Val), nil
	case *val.RealLit:
		return value.R(x.F), nil
	case *val.BoolLit:
		return value.B(x.Val), nil
	case *val.Name:
		i, j := b.ivAt(p)
		if x.Ident == b.indexVar {
			return value.I(i), nil
		}
		if b.indexVar2 != "" && x.Ident == b.indexVar2 {
			return value.I(j), nil
		}
		if v, ok := b.params[x.Ident]; ok {
			return value.I(v), nil
		}
		return value.Value{}, fmt.Errorf("non-static name %s", x.Ident)
	case *val.Unary:
		v, err := b.evalStatic(x.E, p)
		if err != nil {
			return value.Value{}, err
		}
		return foldUnary(x.Op, v)
	case *val.Binary:
		l, err := b.evalStatic(x.L, p)
		if err != nil {
			return value.Value{}, err
		}
		r, err := b.evalStatic(x.R, p)
		if err != nil {
			return value.Value{}, err
		}
		return val.ApplyBinary(x.Op, l, r)
	case *val.If:
		c, err := b.evalStatic(x.Cond, p)
		if err != nil {
			return value.Value{}, err
		}
		if c.AsBool() {
			return b.evalStatic(x.Then, p)
		}
		return b.evalStatic(x.Else, p)
	default:
		return value.Value{}, fmt.Errorf("non-static expression %T", e)
	}
}

func foldUnary(op val.Op, v value.Value) (value.Value, error) {
	switch op {
	case val.OpNeg:
		return value.Neg(v), nil
	case val.OpAbs:
		return value.Abs(v), nil
	case val.OpNot:
		return value.Not(v), nil
	default:
		return value.Value{}, fmt.Errorf("bad unary operator %s", op)
	}
}

func unaryOp(op val.Op) (graph.Op, bool) {
	switch op {
	case val.OpNeg:
		return graph.OpNeg, true
	case val.OpAbs:
		return graph.OpAbs, true
	case val.OpNot:
		return graph.OpNot, true
	}
	return graph.OpInvalid, false
}

func binaryOp(op val.Op) (graph.Op, bool) {
	switch op {
	case val.OpAdd:
		return graph.OpAdd, true
	case val.OpSub:
		return graph.OpSub, true
	case val.OpMul:
		return graph.OpMul, true
	case val.OpDiv:
		return graph.OpDiv, true
	case val.OpMin:
		return graph.OpMin, true
	case val.OpMax:
		return graph.OpMax, true
	case val.OpLT:
		return graph.OpLT, true
	case val.OpLE:
		return graph.OpLE, true
	case val.OpGT:
		return graph.OpGT, true
	case val.OpGE:
		return graph.OpGE, true
	case val.OpEQ:
		return graph.OpEQ, true
	case val.OpNE:
		return graph.OpNE, true
	case val.OpAnd:
		return graph.OpAnd, true
	case val.OpOr:
		return graph.OpOr, true
	}
	return graph.OpInvalid, false
}

// Classify checks whether e is a primitive expression on indexVar per the
// §5 definition, without building a graph. arrays and scalars list the
// names in scope; params the compile-time constants. A nil return means
// primitive.
func Classify(e val.Expr, indexVar string, params map[string]int64, arrays, scalars map[string]bool) error {
	c := &classifier{iv: indexVar, params: params, arrays: arrays, scalars: cloneSet(scalars)}
	return c.walk(e)
}

type classifier struct {
	iv      string
	params  map[string]int64
	arrays  map[string]bool
	scalars map[string]bool
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (c *classifier) walk(e val.Expr) error {
	switch x := e.(type) {
	case *val.IntLit, *val.RealLit, *val.BoolLit:
		return nil
	case *val.Name:
		if x.Ident == c.iv || c.scalars[x.Ident] {
			return nil
		}
		if _, ok := c.params[x.Ident]; ok {
			return nil
		}
		if c.arrays[x.Ident] {
			return notPrim(x.Pos(), "array %s used without a subscript", x.Ident)
		}
		return notPrim(x.Pos(), "unbound identifier %s", x.Ident)
	case *val.Unary:
		return c.walk(x.E)
	case *val.Binary:
		if err := c.walk(x.L); err != nil {
			return err
		}
		return c.walk(x.R)
	case *val.Index:
		if !c.arrays[x.Array] {
			return notPrim(x.Pos(), "%s is not a bound array", x.Array)
		}
		if x.Sub2 != nil {
			return notPrim(x.Pos(), "two-dimensional reference (classify with the 2-D compiler)")
		}
		b := &Builder{indexVar: c.iv, params: c.params}
		if _, ok := b.offsetOf(x.Sub, c.iv); !ok {
			return notPrim(x.Sub.Pos(), "subscript must have the form %s±constant", c.iv)
		}
		return nil
	case *val.Let:
		for _, d := range x.Defs {
			if err := c.walk(d.Init); err != nil {
				return err
			}
			c.scalars[d.Name] = true
		}
		return c.walk(x.Body)
	case *val.If:
		for _, sub := range []val.Expr{x.Cond, x.Then, x.Else} {
			if err := c.walk(sub); err != nil {
				return err
			}
		}
		return nil
	case *val.Forall:
		return notPrim(x.Pos(), "nested forall")
	case *val.ForIter:
		return notPrim(x.Pos(), "nested for-iter")
	case *val.Append, *val.ArrayInit:
		return notPrim(e.Pos(), "array constructor operation")
	default:
		return notPrim(e.Pos(), "unsupported form %T", e)
	}
}
