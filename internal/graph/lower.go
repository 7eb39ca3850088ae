package graph

import (
	"fmt"
	"sync"

	"staticpipe/internal/value"
)

// Table is a graph lowered to the machine's one instruction-level form
// (§2): every cell with its operand slots, its destination list and the
// acknowledge arcs back to its producers, flattened into index-linked
// arrays. A FIFO(k) is lowered to the k identity cells it stands for
// (§8), so cells and arcs are numbered exactly as ExpandFIFOs numbers
// them: every FIFO's inner arcs come first, and the graph's own arcs
// follow in ID order. Both simulators, placement and rate analysis read
// this form; cell IDs in their results, traces and diagnostics name the
// cells of Graph.
//
// Cells, Ports, Lits, Cins, Outs, Arcs, Inits and Attrs hold no pointers;
// the labels, streams and patterns of the endpoint cells sit beside them,
// indexed by Cell.Aux. A Table is immutable after Lower and safe for
// concurrent readers.
type Table struct {
	Cells []Cell
	Ports []int32 // per operand port: an arc ID (>= 0) or ^literal slot
	Lits  []value.Value
	Cins  []int32   // per cell, the arcs of its arc-fed ports in port order
	Outs  []Dest    // per cell, its destination arcs in arc order
	Arcs  []ArcEnds // by arc ID
	Inits []ArcInit // initial tokens, in arc order
	// Attrs lists, in arc order, the arcs that carry rate-analysis
	// annotations (Marking, Skew or Feedback). Few arcs do, so they sit
	// beside Arcs rather than widening it: the simulators touch Arcs on
	// every firing and never read these.
	Attrs []ArcAttr

	Sources  []Source
	Sinks    []string   // label per sink index
	Patterns []*Pattern // per control-generator index

	g          *Graph // as lowered; expanded only on demand
	expandOnce sync.Once
	expanded   *Graph
}

// Cell is one instruction of a Table. Its operand ports, the arcs it
// consumes and its destinations are runs of the table's shared arrays.
type Cell struct {
	Op     Op
	Aux    int32 // source, sink or control-generator index; -1 otherwise
	P0, P1 int32 // Ports[P0:P1]: one entry per operand port
	C0, C1 int32 // Cins[C0:C1]: the arc-fed ports' arcs, in port order
	O0, O1 int32 // Outs[O0:O1]: destination arcs, in arc order
}

// Dest is one destination arc and the operand port gating it (NoGate when
// the destination is unconditional).
type Dest struct {
	Arc, Gate int32
}

// ArcEnds is an arc's producer, consumer and consumer port.
type ArcEnds struct {
	From, To, Port int32
}

// ArcInit is an initial token.
type ArcInit struct {
	Arc int32
	Val value.Value
}

// ArcAttr carries an arc's rate-analysis annotations (see Arc).
type ArcAttr struct {
	Arc, Marking, Skew int32
	Feedback           bool
}

// Source is one stream source cell and the stream bound on the graph.
type Source struct {
	Cell   int32
	Label  string
	Stream []value.Value
}

// Port returns port p's entry of cell c.
func (t *Table) Port(c *Cell, p int) int32 { return t.Ports[int(c.P0)+p] }

// Lower validates g and flattens it into its instruction table. The graph
// must not be mutated afterwards.
func Lower(g *Graph) (*Table, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t := &Table{g: g}
	if err := t.build(g); err != nil {
		return nil, err
	}
	return t, nil
}

// Graph returns the FIFO-expanded graph the table numbers: its node and
// arc IDs are the table's cell and arc numbers. It is built on the first
// call and shared afterwards; callers must treat it as read-only. Only
// diagnostics need it (trace metadata, stall messages, analyzer reports),
// so a clean untraced run never builds it.
func (t *Table) Graph() *Graph {
	t.expandOnce.Do(func() { t.expanded = t.g.ExpandFIFOs() })
	return t.expanded
}

// CellName returns cell id's diagnostic name (Node.Name of Graph's node).
func (t *Table) CellName(id int) string { return t.Graph().Node(NodeID(id)).Name() }

// CellNames returns every cell's diagnostic name, indexed by cell.
func (t *Table) CellNames() []string {
	nodes := t.Graph().Nodes()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name()
	}
	return names
}

func (t *Table) build(g *Graph) error {
	nodes, garcs := g.Nodes(), g.Arcs()
	head := make([]int32, len(nodes))
	tail := make([]int32, len(nodes))
	nc, inner, nports := int32(0), 0, 0
	for _, n := range nodes {
		head[n.ID] = nc
		if n.Op == OpFIFO {
			nc += int32(n.Cap)
			inner += n.Cap - 1
			nports += n.Cap
		} else {
			nc++
			nports += len(n.In)
		}
		tail[n.ID] = nc - 1
	}
	nattrs := 0
	for _, a := range garcs {
		if a.Marking != 0 || a.Skew != 0 || a.Feedback {
			nattrs++
		}
	}
	t.Cells = make([]Cell, nc)
	t.Ports = make([]int32, nports)
	t.Arcs = make([]ArcEnds, 0, inner+len(garcs))
	t.Attrs = make([]ArcAttr, 0, nattrs)
	t.Cins = make([]int32, 0, inner+len(garcs)) // each arc feeds one port
	gates := make([]int32, 0, inner+len(garcs))

	const unbound = -1 << 31
	p0 := int32(0)
	seenSinks := map[string]bool{}
	for _, n := range nodes {
		op, np, aux := n.Op, int32(len(n.In)), int32(-1)
		switch op {
		case OpFIFO:
			op, np = OpID, 1
		case OpSource:
			aux = int32(len(t.Sources))
			t.Sources = append(t.Sources, Source{Cell: head[n.ID], Label: n.Label, Stream: n.Stream})
		case OpSink:
			if seenSinks[n.Label] {
				return fmt.Errorf("graph: duplicate sink label %q", n.Label)
			}
			seenSinks[n.Label] = true
			aux = int32(len(t.Sinks))
			t.Sinks = append(t.Sinks, n.Label)
		case OpCtlGen:
			aux = int32(len(t.Patterns))
			t.Patterns = append(t.Patterns, n.Pattern)
		}
		for id := head[n.ID]; id <= tail[n.ID]; id++ {
			t.Cells[id] = Cell{Op: op, Aux: aux, P0: p0, P1: p0 + np}
			for p := p0; p < p0+np; p++ {
				t.Ports[p] = unbound
			}
			p0 += np
			if id > head[n.ID] {
				t.Arcs = append(t.Arcs, ArcEnds{From: id - 1, To: id})
				gates = append(gates, NoGate)
			}
		}
	}
	for _, a := range garcs {
		aid := int32(len(t.Arcs))
		e := ArcEnds{From: tail[a.From], To: head[a.To], Port: int32(a.ToPort)}
		gate := int32(a.Gate)
		if nodes[a.To].Op == OpFIFO {
			e.Port = 0
		}
		if nodes[a.From].Op == OpFIFO {
			gate = NoGate // FIFO stages never gate
		}
		if a.Init != nil {
			t.Inits = append(t.Inits, ArcInit{Arc: aid, Val: *a.Init})
		}
		if a.Marking != 0 || a.Skew != 0 || a.Feedback {
			t.Attrs = append(t.Attrs, ArcAttr{Arc: aid, Marking: int32(a.Marking), Skew: int32(a.Skew), Feedback: a.Feedback})
		}
		t.Arcs = append(t.Arcs, e)
		gates = append(gates, gate)
	}
	for aid, e := range t.Arcs {
		c := &t.Cells[e.To]
		if e.Port < 0 || e.Port >= c.P1-c.P0 || t.Port(c, int(e.Port)) != unbound {
			return fmt.Errorf("graph: arc %d cannot bind port %d of cell %d", aid, e.Port, e.To)
		}
		t.Ports[c.P0+e.Port] = int32(aid)
	}
	for _, n := range nodes {
		for p, in := range n.In {
			if in.Literal == nil {
				continue
			}
			c := &t.Cells[head[n.ID]]
			if t.Port(c, p) != unbound {
				return fmt.Errorf("graph: %s operand port %d doubly bound", n.Name(), p)
			}
			t.Ports[int(c.P0)+p] = ^int32(len(t.Lits))
			t.Lits = append(t.Lits, *in.Literal)
		}
	}

	// Destinations grouped by producer, each group in arc order: the order
	// of each node's Out list, which ConnectGated only appends to.
	nouts := make([]int32, nc+1)
	for _, e := range t.Arcs {
		nouts[e.From+1]++
	}
	for i := 1; i <= int(nc); i++ {
		nouts[i] += nouts[i-1]
	}
	t.Outs = make([]Dest, len(t.Arcs))
	for aid, e := range t.Arcs {
		t.Outs[nouts[e.From]] = Dest{Arc: int32(aid), Gate: gates[aid]}
		nouts[e.From]++
	}

	for id := range t.Cells {
		c := &t.Cells[id]
		c.O1 = nouts[id]
		if id > 0 {
			c.O0 = nouts[id-1]
		}
		c.C0 = int32(len(t.Cins))
		for _, port := range t.Ports[c.P0:c.P1] {
			if port == unbound {
				return fmt.Errorf("graph: cell %d has an unbound operand port", id)
			}
			if port >= 0 {
				t.Cins = append(t.Cins, port)
			}
		}
		c.C1 = int32(len(t.Cins))
	}
	return nil
}

// BindStreams resolves every source's stream for a run of b lanes, at
// index source*b + lane: the stream bound on the graph, overridden by
// label first by inputs (every lane's base) and then, for lanes after the
// first, by lanes[lane]. Lane 0 always runs the base binding. A label
// naming no source cell is an error, as is more lane input sets than
// lanes. buf is reused when its capacity allows; the graph is never
// written, so concurrent runs cannot race on input binding.
func (t *Table) BindStreams(inputs map[string][]value.Value, lanes []map[string][]value.Value, b int, buf [][]value.Value) ([][]value.Value, error) {
	if label, ok := t.unknownLabel(inputs); ok {
		return nil, fmt.Errorf("input %q names no source cell", label)
	}
	if len(lanes) > b {
		return nil, fmt.Errorf("%d lane input sets for %d lanes", len(lanes), b)
	}
	for l, li := range lanes {
		if label, ok := t.unknownLabel(li); ok {
			return nil, fmt.Errorf("lane %d input %q names no source cell", l, label)
		}
	}
	if n := len(t.Sources) * b; cap(buf) < n {
		buf = make([][]value.Value, n)
	} else {
		buf = buf[:n]
	}
	for k, src := range t.Sources {
		stream := src.Stream
		if sv, ok := inputs[src.Label]; ok {
			stream = sv
		}
		for l := 0; l < b; l++ {
			buf[k*b+l] = stream
			if l > 0 && l < len(lanes) {
				if sv, ok := lanes[l][src.Label]; ok {
					buf[k*b+l] = sv
				}
			}
		}
	}
	return buf, nil
}

// unknownLabel returns a key of inputs that names no source cell, if any.
func (t *Table) unknownLabel(inputs map[string][]value.Value) (string, bool) {
	for label := range inputs {
		found := false
		for _, src := range t.Sources {
			found = found || src.Label == label
		}
		if !found {
			return label, true
		}
	}
	return "", false
}
