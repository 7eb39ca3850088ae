// Package pipestruct compiles whole pipe-structured programs (§4, §8,
// Theorem 4): acyclic compositions of forall and for-iter blocks connected
// by producer/consumer array streams — the flow dependency graph of Fig 3.
//
// Each block compiles into one shared instruction graph; an arc of the flow
// dependency graph is simply the producer block's output cell fanned out to
// the consumer blocks' selection gates. Because the composition is acyclic
// and every block is fully pipelined, one global application of the
// balancing algorithm (package balance) yields a fully pipelined
// instruction graph for the complete program — exactly the construction of
// Theorem 4.
package pipestruct

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"staticpipe/internal/balance"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/passes"
	"staticpipe/internal/pe"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// Options configures whole-program compilation.
type Options struct {
	// ForallScheme selects the forall mapping (Pipeline by default).
	ForallScheme forall.Scheme
	// ForIterScheme selects the for-iter mapping (Auto by default).
	ForIterScheme foriter.Scheme
	// PE configures primitive-expression compilation (control stream
	// realization).
	PE pe.Options
	// Passes is the post-construction pass pipeline run over the
	// assembled instruction graph (package passes). Nil is the paper's
	// default, optimal balancing alone; an empty non-nil list runs no pass.
	Passes []passes.Pass
	// VerifyEach runs graph.Verify (and, once balanced, the §3
	// equal-path-length check) after every pass.
	VerifyEach bool
	// Snapshot, if non-nil, receives the IR after every pass. The graph is
	// live; hooks must render what they need synchronously.
	Snapshot func(pass string, g *graph.Graph)
}

// BlockMeta records how one block compiled.
type BlockMeta struct {
	Name string
	// Form is "forall" or "for-iter".
	Form string
	// Scheme is the mapping scheme actually used.
	Scheme string
	// Kind is the recurrence classification of a for-iter block.
	Kind string
	// Lo, Hi is the produced array's index range.
	Lo, Hi int64
}

// Result is a compiled pipe-structured program, ready to run.
type Result struct {
	Graph *graph.Graph
	// Inputs maps each declared input to its source cell; set its stream
	// with SetInput before running.
	Inputs map[string]*graph.Node
	// Outputs maps each output array name to its index range; the sink
	// with that label collects its elements.
	Outputs map[string]Range
	// Blocks records per-block compilation metadata in program order.
	Blocks []BlockMeta
	// Plan is the applied balancing plan (nil when no balancing pass ran).
	Plan *balance.Plan
	// Deduped counts cells removed by common-cell elimination.
	Deduped int
	// PassStats records each executed compilation pass (name, wall time,
	// graph sizes), in pipeline order.
	PassStats []passes.Stat
	// Warnings carries pipeline-level diagnostics from the pass manager
	// (e.g. an auto-appended balance after a trailing dedup).
	Warnings []string

	decls map[string]inputDecl
}

// inputDecl is what every stream bound to one declared input must match:
// its length and the element type of its array.
type inputDecl struct {
	n    int
	elem val.ScalarKind
}

// Range is an inclusive array index range; two-dimensional arrays carry a
// second range and stream row-major.
type Range struct {
	Lo, Hi   int64
	TwoD     bool
	Lo2, Hi2 int64
}

// Len returns the element count of the range.
func (r Range) Len() int {
	n := int(r.Hi - r.Lo + 1)
	if r.TwoD {
		n *= int(r.Hi2 - r.Lo2 + 1)
	}
	return n
}

// Width returns the second-dimension extent (0 for vectors).
func (r Range) Width() int {
	if !r.TwoD {
		return 0
	}
	return int(r.Hi2 - r.Lo2 + 1)
}

// Compile translates a checked pipe-structured program into a single
// balanced machine-level instruction graph.
func Compile(c *val.Checked, opts Options) (*Result, error) {
	g := graph.New()
	res := &Result{
		Graph:   g,
		Inputs:  map[string]*graph.Node{},
		Outputs: map[string]Range{},
		decls:   map[string]inputDecl{},
	}

	// Producer streams visible to consumers: declared inputs first.
	streams := map[string]forall.Input{}
	for _, in := range c.Inputs {
		// The stream itself is bound at run time by SetInput; an empty
		// placeholder keeps the graph valid meanwhile.
		src := g.AddSource(in.Name, make([]value.Value, 0))
		res.Inputs[in.Name] = src
		res.decls[in.Name] = inputDecl{n: in.Len(), elem: in.Ty.Elem}
		streams[in.Name] = forall.Input{
			Node: src, Lo: in.Lo, Hi: in.Hi,
			TwoD: in.Ty.TwoD, Lo2: in.Lo2, Hi2: in.Hi2,
		}
	}

	// Blocks compile in program order; the applicative language guarantees
	// producers precede consumers.
	for _, blk := range c.Blocks {
		avail := map[string]forall.Input{}
		for _, name := range blk.Consumes {
			s, ok := streams[name]
			if !ok {
				return nil, fmt.Errorf("pipestruct: block %s consumes unknown array %s", blk.Name, name)
			}
			avail[name] = s
		}
		switch e := blk.Expr.(type) {
		case *val.Forall:
			out, err := forall.Compile(g, e, c.Params, avail, forall.Options{
				Scheme: opts.ForallScheme, PE: opts.PE,
			})
			if err != nil {
				return nil, fmt.Errorf("pipestruct: block %s: %w", blk.Name, err)
			}
			streams[blk.Name] = forall.Input{
				Node: out.Node, Lo: out.Lo, Hi: out.Hi,
				TwoD: out.TwoD, Lo2: out.Lo2, Hi2: out.Hi2,
			}
			res.Blocks = append(res.Blocks, BlockMeta{
				Name: blk.Name, Form: "forall",
				Scheme: schemeName(opts.ForallScheme),
				Lo:     out.Lo, Hi: out.Hi,
			})
		case *val.ForIter:
			out, err := foriter.Compile(g, e, c.Params, avail, foriter.Options{
				Scheme: opts.ForIterScheme, PE: opts.PE,
			})
			if err != nil {
				return nil, fmt.Errorf("pipestruct: block %s: %w", blk.Name, err)
			}
			streams[blk.Name] = forall.Input{Node: out.Node, Lo: out.Lo, Hi: out.Hi}
			res.Blocks = append(res.Blocks, BlockMeta{
				Name: blk.Name, Form: "for-iter",
				Scheme: out.Used.String(), Kind: out.Rec.Kind.String(),
				Lo: out.Lo, Hi: out.Hi,
			})
		default:
			return nil, fmt.Errorf("pipestruct: block %s is not a forall or for-iter block (%T); the program is not pipe-structured", blk.Name, blk.Expr)
		}
	}

	// Outputs become sinks; unconsumed non-output block results must still
	// drain (discard sinks) so they do not jam the pipeline.
	for _, name := range c.Outputs {
		s := streams[name]
		g.Connect(s.Node, g.AddSink(name), 0)
		res.Outputs[name] = Range{Lo: s.Lo, Hi: s.Hi, TwoD: s.TwoD, Lo2: s.Lo2, Hi2: s.Hi2}
	}
	for _, n := range g.Nodes() {
		if n.Op.HasOut() && len(n.Out) == 0 {
			g.Connect(n, g.AddSink("discard:"+n.Label+fmt.Sprint(n.ID)), 0)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pipestruct: %w", err)
	}

	// Post-construction compilation runs as an explicit pass pipeline.
	pl := opts.Passes
	if pl == nil {
		pl = []passes.Pass{passes.Balance{}}
	}
	ctx := &passes.Context{VerifyEach: opts.VerifyEach, Snapshot: opts.Snapshot}
	g, err := passes.NewManager(pl...).Run(g, ctx)
	if err != nil {
		return nil, fmt.Errorf("pipestruct: %w", err)
	}
	res.Graph = g
	res.Plan = ctx.Plan
	res.Deduped = ctx.Deduped
	res.PassStats = ctx.Stats
	res.Warnings = ctx.Warnings

	// Graph-rebuilding passes invalidate node identity; re-resolve the
	// input source cells by their (unique) labels.
	byLabel := map[string]*graph.Node{}
	for _, n := range g.Nodes() {
		if n.Op == graph.OpSource {
			byLabel[n.Label] = n
		}
	}
	for name := range res.Inputs {
		src, ok := byLabel[name]
		if !ok {
			return nil, fmt.Errorf("pipestruct: internal error: input %s lost in pass pipeline", name)
		}
		res.Inputs[name] = src
	}
	return res, nil
}

func schemeName(s forall.Scheme) string {
	if s == forall.Parallel {
		return "parallel"
	}
	return "pipeline"
}

// SetInput binds an input array's element stream by writing it into the
// graph's source cell. Runs never do this — they pass inputs through
// exec.Options.Inputs or machine.Config.Inputs (see CheckInputs), so a
// compiled graph can be shared; SetInput is for a graph that is about to
// be serialized with its streams bound, as dfc -emit does.
func (r *Result) SetInput(name string, vals []value.Value) error {
	src, ok := r.Inputs[name]
	if !ok {
		return fmt.Errorf("pipestruct: unknown input %s", name)
	}
	if err := r.CheckInput(name, vals); err != nil {
		return fmt.Errorf("pipestruct: %w", err)
	}
	src.Stream = vals
	return nil
}

// CheckInput checks one stream bound to the named input, such as one lane
// of a batched run: the name is declared, the stream has the declared
// length, and every element has a kind the declared element type takes.
// An integer or real array takes integers and reals (the service's wire
// format sends every bare number as a real); a boolean array takes only
// booleans. A simulator panics on an operand of a kind its operator does
// not take, so every run path checks each stream it binds here first. The
// error reads after a subject, such as "lane 2 input A has …".
func (r *Result) CheckInput(name string, vals []value.Value) error {
	d, ok := r.decls[name]
	if !ok {
		return fmt.Errorf("binds unknown input %s", name)
	}
	if len(vals) != d.n {
		return fmt.Errorf("input %s has %d elements, want %d", name, len(vals), d.n)
	}
	// Every run binds its streams through here, so the common case is one
	// branch-free pass that collects the kinds present; only a stream
	// holding a kind its array cannot take is scanned again, for the first
	// such element.
	var present uint
	for _, v := range vals {
		present |= 1 << (v.Kind() & 7) // a Kind is below 4; the mask drops the shift's range check
	}
	if takes := kindSet(d.elem); present&^takes != 0 {
		i := slices.IndexFunc(vals, func(v value.Value) bool { return takes&(1<<v.Kind()) == 0 })
		return fmt.Errorf("input %s element %d is %s, want %s", name, i, vals[i].Kind(), d.elem)
	}
	return nil
}

// kindSet returns the value kinds an array with element type elem can
// hold, one bit per value.Kind.
func kindSet(elem val.ScalarKind) uint {
	if elem == val.KindBool {
		return 1 << value.Bool
	}
	return 1<<value.Int | 1<<value.Real
}

// CheckInputs validates a full input binding — every declared input present
// and passing CheckInput — without writing the graph. Every run path
// checks its inputs with it: SetInput/SetInputs mutate source cells, so a
// shared Result must never see them; runs instead pass the checked map
// through exec.Options.Inputs or machine.Config.Inputs.
// Keys naming no declared input are ignored, matching SetInputs.
func (r *Result) CheckInputs(inputs map[string][]value.Value) error {
	for name := range r.Inputs {
		vals, ok := inputs[name]
		if !ok {
			return fmt.Errorf("pipestruct: missing input %s", name)
		}
		if err := r.CheckInput(name, vals); err != nil {
			return fmt.Errorf("pipestruct: %w", err)
		}
	}
	return nil
}

// BindInputs validates a full input binding (see CheckInputs) and returns
// it narrowed to the declared inputs: the per-run form exec.Options.Inputs
// and machine.Config.Inputs take, which reject names that match no source
// cell. Keys naming no declared input are ignored, matching SetInputs.
func (r *Result) BindInputs(inputs map[string][]value.Value) (map[string][]value.Value, error) {
	if err := r.CheckInputs(inputs); err != nil {
		return nil, err
	}
	binds := make(map[string][]value.Value, len(r.Inputs))
	for name := range r.Inputs {
		binds[name] = inputs[name]
	}
	return binds, nil
}

// SetInputs binds all input streams into the graph (see SetInput: for
// serializing a graph with its streams, not for running it).
func (r *Result) SetInputs(inputs map[string][]value.Value) error {
	for name := range r.Inputs {
		vals, ok := inputs[name]
		if !ok {
			return fmt.Errorf("pipestruct: missing input %s", name)
		}
		if err := r.SetInput(name, vals); err != nil {
			return err
		}
	}
	return nil
}

// FlowEdge is one producer→consumer edge of the flow dependency graph.
type FlowEdge struct {
	From, To string
}

// FlowGraph returns the block-level flow dependency graph of a checked
// program (§4: "the overall structure of a pipe-structured program can be
// described by an acyclic directed graph").
func FlowGraph(c *val.Checked) []FlowEdge {
	var edges []FlowEdge
	for _, blk := range c.Blocks {
		for _, from := range blk.Consumes {
			edges = append(edges, FlowEdge{From: from, To: blk.Name})
		}
	}
	return edges
}

// FlowDOT renders the flow dependency graph in Graphviz syntax for visual
// comparison with Fig 3.
func FlowDOT(c *val.Checked) string {
	var b strings.Builder
	b.WriteString("digraph flow {\n  rankdir=LR;\n")
	var inputs []string
	for _, in := range c.Inputs {
		inputs = append(inputs, in.Name)
	}
	sort.Strings(inputs)
	for _, in := range inputs {
		fmt.Fprintf(&b, "  %s [shape=ellipse];\n", in)
	}
	for _, blk := range c.Blocks {
		form := "forall"
		if _, ok := blk.Expr.(*val.ForIter); ok {
			form = "for-iter"
		}
		fmt.Fprintf(&b, "  %s [shape=box, label=\"%s\\n%s\"];\n", blk.Name, blk.Name, form)
	}
	for _, e := range FlowGraph(c) {
		fmt.Fprintf(&b, "  %s -> %s;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}
