package machine

import (
	"fmt"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated packet-level simulation: its
// lowered instruction table (graph.Lower), shared with the exec core when
// both come from one artifact, and a free-list pool of run arenas
// (machine-resident cell state plus per-arc operand slots) so a run over a
// warm Prepared rebuilds machine state without re-allocating it.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — the machine half of the artifact-cache contract: one compiled
// artifact shared across goroutines, bound to per-run inputs via
// Config.Inputs instead of graph mutation.
type Prepared struct {
	tab  *graph.Table
	pool sync.Pool // *runArena sized for tab
}

// runArena is the pooled per-run machine state: the cell array and the
// per-arc operand slots. Everything else a run builds (Result maps,
// networks, FU wheels) escapes into the Result or is cheap relative to
// these, so only they are pooled.
type runArena struct {
	cells  []cell
	arcHas []bool
	arcVal []value.Value
}

// Prepare lowers g (graph.Lower) for the packet-level machine.
func Prepare(g *graph.Graph) (*Prepared, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return nil, err
	}
	return PrepareTable(t), nil
}

// PrepareTable readies an already lowered graph for the packet-level
// machine. The table is shared, never written.
func PrepareTable(t *graph.Table) *Prepared { return &Prepared{tab: t} }

// Table returns the instruction table the Prepared simulates; its cell IDs
// index Config.Placement.
func (p *Prepared) Table() *graph.Table { return p.tab }

// Run simulates the prepared graph on the configured machine, drawing run
// state from the arena pool.
func (p *Prepared) Run(cfg Config) (*Result, error) {
	res, err := p.run(cfg)
	annotateSpan(cfg.Ctx, res, err, cfg.Batch)
	return res, err
}

func (p *Prepared) run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Batch > 1 {
		return p.runBatched(cfg)
	}
	streams, err := p.tab.BindStreams(cfg.Inputs, nil, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return p.runLane(cfg, streams, 0, 1, nil)
}

// runLane runs one machine instance over pooled run state: all of a scalar
// run, or lane l of a b-lane batched run (ctr then receives its live
// counters). streams is the run's binding, source*b + lane (see
// graph.Table.BindStreams). Returning the arena to the pool on return is
// safe: nothing in it escapes into the Result or points at the run's
// inputs, and newMachine resets it on the next get.
func (p *Prepared) runLane(cfg Config, streams [][]value.Value, l, b int, ctr *trace.LaneCounters) (*Result, error) {
	ar := p.getArena()
	defer p.pool.Put(ar)
	m, err := newMachine(p.tab, cfg, streams, l, b, ar)
	if err != nil {
		return nil, err
	}
	m.laneCtr = ctr
	return m.drive()
}

func (p *Prepared) getArena() *runArena {
	ar, _ := p.pool.Get().(*runArena)
	if ar == nil {
		ar = &runArena{
			cells:  make([]cell, len(p.tab.Cells)),
			arcHas: make([]bool, len(p.tab.Arcs)),
			arcVal: make([]value.Value, len(p.tab.Arcs)),
		}
	}
	return ar
}
