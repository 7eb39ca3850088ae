package machine

import (
	"fmt"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated packet-level simulation:
// validated and FIFO-expanded exactly once, with a free-list pool of run
// arenas (instruction-cell array plus flat operand-token storage) so a run
// over a warm Prepared rebuilds machine state without re-allocating it.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — the machine half of the artifact-cache contract: one compiled
// artifact shared across goroutines, bound to per-run inputs via
// Config.Inputs instead of graph mutation.
type Prepared struct {
	g     *graph.Graph
	ports int       // total operand slots across all cells (Σ len(n.In))
	pool  sync.Pool // *runArena sized for g
}

// runArena is the pooled per-run machine state: the cell array and the flat
// backing arrays its operand slices are carved from. Everything else a run
// builds (Result maps, networks, FU wheels) escapes into the Result or is
// cheap relative to the per-cell slices, so only these are pooled.
type runArena struct {
	cells []cell
	toks  []value.Value
	has   []bool
}

// Prepare validates g and expands its FIFO cells, returning the reusable
// simulation artifact. The expansion work (and its allocation) is paid here
// once instead of on every Run.
func Prepare(g *graph.Graph) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	eg := g.ExpandFIFOs()
	if err := eg.Validate(); err != nil {
		return nil, fmt.Errorf("machine: expanded graph invalid: %w", err)
	}
	ports := 0
	for _, n := range eg.Nodes() {
		ports += len(n.In)
	}
	return &Prepared{g: eg, ports: ports}, nil
}

// Graph returns the validated, FIFO-expanded graph the Prepared simulates.
// Callers must treat it as read-only.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// Run simulates the prepared graph on the configured machine, drawing run
// state from the arena pool. Results, cycle counts, packet accounting, and
// diagnostics are byte-identical to Run(g, cfg) on the unexpanded graph.
func (p *Prepared) Run(cfg Config) (*Result, error) {
	res, err := p.run(cfg)
	annotateSpan(cfg.Ctx, res, err, cfg.Batch)
	return res, err
}

func (p *Prepared) run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validateInputs(p.g, cfg.Inputs); err != nil {
		return nil, err
	}
	if cfg.Batch > 1 {
		return p.runBatched(cfg)
	}
	return p.runLane(cfg, cfg.Inputs, nil)
}

// runLane runs one machine instance over pooled run state: all of a scalar
// run, or one lane of a batched run (ctr then receives its live counters).
// Returning the arena in the deferred put is safe: nothing carved from it
// escapes into the Result.
func (p *Prepared) runLane(cfg Config, streams map[string][]value.Value, ctr *trace.LaneCounters) (*Result, error) {
	ar := p.getArena()
	defer p.putArena(ar)
	m, err := newMachine(p.g, cfg, streams, ar)
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
			cells: make([]cell, p.g.NumNodes()),
			toks:  make([]value.Value, p.ports),
			has:   make([]bool, p.ports),
		}
	}
	return ar
}

// putArena returns run state to the pool. Source-stream references are
// dropped so a pooled arena never pins one run's input slices; the token
// arrays are cleared on the next get (see place).
func (p *Prepared) putArena(ar *runArena) {
	for i := range ar.cells {
		ar.cells[i].stream = nil
	}
	p.pool.Put(ar)
}
