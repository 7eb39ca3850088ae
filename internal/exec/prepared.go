package exec

import (
	"fmt"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated execution: validated and
// flattened exactly once into an instruction table both engines read, with
// a free-list pool of scalar-engine run state (arc slots, candidate
// bitsets, plan arenas) so a run over a warm Prepared allocates near
// nothing before its first cycle.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — this is the execution half of the artifact-cache contract: one
// compiled artifact, shared across goroutines, bound to per-run inputs via
// Options.Inputs instead of graph mutation. The graph passed to Prepare
// must not be mutated afterwards.
type Prepared struct {
	g    *graph.Graph // as passed to Prepare; expanded only on demand
	tab  table
	pool sync.Pool // *sim, scratch sized for tab

	expandOnce sync.Once
	expanded   *graph.Graph
}

// Prepare validates g and builds its instruction table, numbering cells and
// arcs as the FIFO-expanded graph does. The table is paid for here once
// instead of on every Run; the expanded graph itself is built only when
// something asks for it (see Graph).
func Prepare(g *graph.Graph) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{g: g}
	if err := p.tab.build(g); err != nil {
		return nil, err
	}
	return p, nil
}

// Graph returns the validated, FIFO-expanded graph the Prepared runs: its
// node and arc IDs are the table's cell and arc numbers. It is built on the
// first call and shared afterwards; callers must treat it as read-only.
// Only trace metadata, stall diagnostics, Waterfall and callers of
// Result.Graph need it, so a clean untraced run never builds it.
func (p *Prepared) Graph() *graph.Graph {
	p.expandOnce.Do(func() { p.expanded = p.g.ExpandFIFOs() })
	return p.expanded
}

// cellNames returns the trace metadata's cell names.
func (p *Prepared) cellNames() []string {
	nodes := p.Graph().Nodes()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name()
	}
	return names
}

// shape classifies how the batched engine plans a cell.
type shape uint8

const (
	shapeSlow   shape = iota // per-lane exact planning: merges, gates, control generators, gated destinations
	shapeSource              // stream source
	shapeSink                // arc-fed sink
	shapeApply               // ordinary operator with ungated destinations
)

// cell is one instruction of the table. Its operand ports, the arcs it
// consumes and its destinations are runs of the table's shared arrays.
type cell struct {
	op     graph.Op
	shape  shape
	aux    int32 // source, sink or control-generator index; -1 otherwise
	p0, p1 int32 // ports[p0:p1]: one entry per operand port
	c0, c1 int32 // cins[c0:c1]: the arc-fed ports' arcs, in port order
	o0, o1 int32 // outs[o0:o1]: destination arcs, in arc order
}

// dest is one destination arc and the operand port gating it (-1 when the
// destination is unconditional).
type dest struct {
	arc, gate int32
}

// arcEnds is an arc's producer, consumer and consumer port.
type arcEnds struct {
	from, to, port int32
}

// arcInit is an initial token.
type arcInit struct {
	arc int32
	val value.Value
}

// source is one stream source cell and the stream bound on the graph.
type source struct {
	cell   int32
	label  string
	stream []value.Value
}

// table is a Prepared's instruction table: the FIFO-expanded graph
// flattened into index-linked arrays. cells, ports, lits, cins, outs, arcs
// and inits hold no pointers; the labels, streams and patterns of the
// endpoint cells sit beside them, indexed by cell.aux.
type table struct {
	cells []cell
	ports []int32 // per operand port: an arc ID (>= 0) or ^literal slot
	lits  []value.Value
	cins  []int32
	outs  []dest
	arcs  []arcEnds
	inits []arcInit

	sources  []source
	sinks    []string         // label per sink index
	patterns []*graph.Pattern // per control-generator index
}

// port returns port p's entry of cell c.
func (t *table) port(c *cell, p int) int32 { return t.ports[int(c.p0)+p] }

// build flattens a validated graph. Cells and arcs are numbered exactly as
// graph.ExpandFIFOs numbers them: a FIFO(k) becomes k consecutive identity
// cells joined by k-1 arcs, every FIFO's inner arcs come first, and the
// graph's own arcs follow in ID order. Firing counts, trace cell IDs and
// stall diagnostics therefore name the cells of Prepared.Graph.
func (t *table) build(g *graph.Graph) error {
	nodes, garcs := g.Nodes(), g.Arcs()
	head := make([]int32, len(nodes))
	tail := make([]int32, len(nodes))
	nc, inner, nports := int32(0), 0, 0
	for _, n := range nodes {
		head[n.ID] = nc
		if n.Op == graph.OpFIFO {
			nc += int32(n.Cap)
			inner += n.Cap - 1
			nports += n.Cap
		} else {
			nc++
			nports += len(n.In)
		}
		tail[n.ID] = nc - 1
	}
	t.cells = make([]cell, nc)
	t.ports = make([]int32, nports)
	t.arcs = make([]arcEnds, 0, inner+len(garcs))
	gates := make([]int32, 0, inner+len(garcs))

	const unbound = -1 << 31
	p0 := int32(0)
	seenSinks := map[string]bool{}
	for _, n := range nodes {
		op, np, aux := n.Op, int32(len(n.In)), int32(-1)
		switch op {
		case graph.OpFIFO:
			op, np = graph.OpID, 1
		case graph.OpSource:
			aux = int32(len(t.sources))
			t.sources = append(t.sources, source{cell: head[n.ID], label: n.Label, stream: n.Stream})
		case graph.OpSink:
			if seenSinks[n.Label] {
				return fmt.Errorf("exec: duplicate sink label %q", n.Label)
			}
			seenSinks[n.Label] = true
			aux = int32(len(t.sinks))
			t.sinks = append(t.sinks, n.Label)
		case graph.OpCtlGen:
			aux = int32(len(t.patterns))
			t.patterns = append(t.patterns, n.Pattern)
		}
		for id := head[n.ID]; id <= tail[n.ID]; id++ {
			t.cells[id] = cell{op: op, aux: aux, p0: p0, p1: p0 + np}
			for p := p0; p < p0+np; p++ {
				t.ports[p] = unbound
			}
			p0 += np
			if id > head[n.ID] {
				t.arcs = append(t.arcs, arcEnds{from: id - 1, to: id})
				gates = append(gates, graph.NoGate)
			}
		}
	}
	for _, a := range garcs {
		e := arcEnds{from: tail[a.From], to: head[a.To], port: int32(a.ToPort)}
		gate := int32(a.Gate)
		if nodes[a.To].Op == graph.OpFIFO {
			e.port = 0
		}
		if nodes[a.From].Op == graph.OpFIFO {
			gate = graph.NoGate // FIFO stages never gate
		}
		if a.Init != nil {
			t.inits = append(t.inits, arcInit{arc: int32(len(t.arcs)), val: *a.Init})
		}
		t.arcs = append(t.arcs, e)
		gates = append(gates, gate)
	}
	for aid, e := range t.arcs {
		c := &t.cells[e.to]
		if e.port < 0 || e.port >= c.p1-c.p0 || t.port(c, int(e.port)) != unbound {
			return fmt.Errorf("exec: arc %d cannot bind port %d of cell %d", aid, e.port, e.to)
		}
		t.ports[c.p0+e.port] = int32(aid)
	}
	for _, n := range nodes {
		for p, in := range n.In {
			if in.Literal == nil {
				continue
			}
			c := &t.cells[head[n.ID]]
			if t.port(c, p) != unbound {
				return fmt.Errorf("exec: %s operand port %d doubly bound", n.Name(), p)
			}
			t.ports[int(c.p0)+p] = ^int32(len(t.lits))
			t.lits = append(t.lits, *in.Literal)
		}
	}

	// Destinations grouped by producer, each group in arc order.
	nouts := make([]int32, nc+1)
	for _, e := range t.arcs {
		nouts[e.from+1]++
	}
	for i := 1; i <= int(nc); i++ {
		nouts[i] += nouts[i-1]
	}
	t.outs = make([]dest, len(t.arcs))
	for aid, e := range t.arcs {
		t.outs[nouts[e.from]] = dest{arc: int32(aid), gate: gates[aid]}
		nouts[e.from]++
	}

	for id := range t.cells {
		c := &t.cells[id]
		c.o1 = nouts[id]
		if id > 0 {
			c.o0 = nouts[id-1]
		}
		c.c0 = int32(len(t.cins))
		for _, port := range t.ports[c.p0:c.p1] {
			if port == unbound {
				return fmt.Errorf("exec: cell %d has an unbound operand port", id)
			}
			if port >= 0 {
				t.cins = append(t.cins, port)
			}
		}
		c.c1 = int32(len(t.cins))
		gated := false
		for _, d := range t.outs[c.o0:c.o1] {
			gated = gated || d.gate >= 0
		}
		switch c.op {
		case graph.OpSource:
			c.shape = shapeSource
		case graph.OpSink:
			if t.port(c, 0) >= 0 {
				c.shape = shapeSink
			}
		case graph.OpCtlGen, graph.OpMerge, graph.OpTGate, graph.OpFGate:
			// plan shape varies with token values: exact per-lane path
		default:
			if !gated {
				c.shape = shapeApply
			}
		}
	}
	return nil
}

// getSim draws scalar-engine run state from the pool (or builds it on a
// cold pool) and resets it for one run. State that escapes into the
// Result — firings and the sinks' streams — is always allocated fresh;
// only the non-escaping scratch is pooled.
func (p *Prepared) getSim(opt Options) *sim {
	t := &p.tab
	s, _ := p.pool.Get().(*sim)
	if s == nil {
		nc, na := len(t.cells), len(t.arcs)
		s = &sim{
			t:        t,
			streams:  make([][]value.Value, len(t.sources)),
			arcHas:   make([]bool, na),
			arcVal:   make([]value.Value, na),
			srcPos:   make([]int, nc),
			cand:     newBitset(nc),
			nextCand: newBitset(nc),
			sinkOuts: make([][]value.Value, len(t.sinks)),
			sinkArrs: make([][]Arrival, len(t.sinks)),
		}
	} else {
		// arcVal and the plan arenas may hold stale data; both are
		// write-before-read (value.Value carries no pointers, so stale
		// entries pin nothing). The candidate set is fully re-seeded by the
		// run prologue, which marks every cell.
		clear(s.arcHas)
		clear(s.srcPos)
	}
	s.firings = make([]int, len(t.cells))
	s.outCap = 0
	s.tr, s.prog = opt.Tracer, opt.Progress
	return s
}

// putSim returns run state to the pool, dropping every reference that
// would otherwise pin caller inputs, per-run results, or tracer sinks in
// the free list. The scratch arenas keep their capacity — that reuse is
// the point of the pool.
func (p *Prepared) putSim(s *sim) {
	clear(s.streams)
	clear(s.sinkOuts)
	clear(s.sinkArrs)
	s.firings = nil
	s.tr, s.prog = nil, nil
	p.pool.Put(s)
}

// resolveStreams binds each source's stream for one run, indexed by source
// number: the stream compiled into the graph unless inputs overrides it by
// label. Resolution writes only buf (reused when its capacity allows),
// never the graph, so concurrent runs of one graph cannot race on input
// binding.
func (t *table) resolveStreams(inputs map[string][]value.Value, buf [][]value.Value) ([][]value.Value, error) {
	if cap(buf) < len(t.sources) {
		buf = make([][]value.Value, len(t.sources))
	}
	buf = buf[:len(t.sources)]
	for i, src := range t.sources {
		buf[i] = src.stream
		if sv, ok := inputs[src.label]; ok {
			buf[i] = sv
		}
	}
	if label, ok := t.unknownLabel(inputs); ok {
		return nil, fmt.Errorf("exec: input %q names no source cell", label)
	}
	return buf, nil
}

// unknownLabel returns a key of inputs that names no source cell, if any.
func (t *table) unknownLabel(inputs map[string][]value.Value) (string, bool) {
	for label := range inputs {
		found := false
		for _, src := range t.sources {
			found = found || src.label == label
		}
		if !found {
			return label, true
		}
	}
	return "", false
}
