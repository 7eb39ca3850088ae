package exec

import (
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated execution: lowered exactly
// once into the instruction table both engines read (graph.Lower), each
// cell's batched plan shape beside it, and a free-list pool of
// scalar-engine run state (arc slots, candidate bitsets, plan arenas) so a
// run over a warm Prepared allocates near nothing before its first cycle.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — this is the execution half of the artifact-cache contract: one
// compiled artifact, shared across goroutines, bound to per-run inputs via
// Options.Inputs instead of graph mutation. The graph passed to Prepare
// must not be mutated afterwards.
type Prepared struct {
	tab    *graph.Table
	shapes []shape   // per cell: how the batched engine plans it
	pool   sync.Pool // *sim, scratch sized for tab
}

// Prepare lowers g (graph.Lower) and readies the table for both engines.
// The table is paid for here once instead of on every Run.
func Prepare(g *graph.Graph) (*Prepared, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return nil, err
	}
	return PrepareTable(t), nil
}

// PrepareTable readies an already lowered graph for both engines. The
// table is shared, never written.
func PrepareTable(t *graph.Table) *Prepared {
	p := &Prepared{tab: t, shapes: make([]shape, len(t.Cells))}
	for id := range t.Cells {
		p.shapes[id] = shapeOf(t, &t.Cells[id])
	}
	return p
}

// shape classifies how the batched engine plans a cell.
type shape uint8

const (
	shapeSlow   shape = iota // per-lane exact planning: merges, gates, control generators, gated destinations
	shapeSource              // stream source
	shapeSink                // arc-fed sink
	shapeApply               // ordinary operator with ungated destinations
)

func shapeOf(t *graph.Table, c *graph.Cell) shape {
	switch c.Op {
	case graph.OpSource:
		return shapeSource
	case graph.OpSink:
		if t.Port(c, 0) >= 0 {
			return shapeSink
		}
	case graph.OpCtlGen, graph.OpMerge, graph.OpTGate, graph.OpFGate:
		// plan shape varies with token values: exact per-lane path
	default:
		for _, d := range t.Outs[c.O0:c.O1] {
			if d.Gate >= 0 {
				return shapeSlow
			}
		}
		return shapeApply
	}
	return shapeSlow
}

// getSim draws scalar-engine run state from the pool (or builds it on a
// cold pool) and resets it for one run. State that escapes into the
// Result — firings and the sinks' streams — is always allocated fresh;
// only the non-escaping scratch is pooled.
func (p *Prepared) getSim(opt Options) *sim {
	t := p.tab
	s, _ := p.pool.Get().(*sim)
	if s == nil {
		nc, na := len(t.Cells), len(t.Arcs)
		s = &sim{
			t:        t,
			streams:  make([][]value.Value, len(t.Sources)),
			arcHas:   make([]bool, na),
			arcVal:   make([]value.Value, na),
			srcPos:   make([]int, nc),
			cand:     newBitset(nc),
			nextCand: newBitset(nc),
			sinkOuts: make([][]value.Value, len(t.Sinks)),
			sinkCycs: make([][]int, len(t.Sinks)),
		}
	} else {
		// arcVal and the plan arenas may hold stale data; both are
		// write-before-read (value.Value carries no pointers, so stale
		// entries pin nothing). The candidate set is fully re-seeded by the
		// run prologue, which marks every cell.
		clear(s.arcHas)
		clear(s.srcPos)
	}
	s.firings = make([]int, len(t.Cells))
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
	clear(s.sinkCycs)
	s.firings = nil
	s.tr, s.prog = nil, nil
	p.pool.Put(s)
}
