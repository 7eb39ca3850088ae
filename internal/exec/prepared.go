package exec

import (
	"fmt"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated execution: validated and
// FIFO-expanded exactly once, with a free-list pool of sequential-engine
// run state (arc slots, candidate bitsets, plan arenas) so a run over a
// warm Prepared allocates near nothing before its first cycle.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — this is the execution half of the artifact-cache contract: one
// compiled artifact, shared across goroutines, bound to per-run inputs via
// Options.Inputs instead of graph mutation.
type Prepared struct {
	g    *graph.Graph
	pool sync.Pool // *sim, scratch sized for g
}

// Prepare validates g and expands its FIFO cells, returning the reusable
// execution artifact. The expansion work (and its allocation) is paid here
// once instead of on every Run.
func Prepare(g *graph.Graph) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	eg := g.ExpandFIFOs()
	if err := eg.Validate(); err != nil {
		return nil, fmt.Errorf("exec: expanded graph invalid: %w", err)
	}
	return &Prepared{g: eg}, nil
}

// Graph returns the validated, FIFO-expanded graph the Prepared runs.
// Callers must treat it as read-only.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// getSim draws sequential-engine run state from the pool (or builds it on
// a cold pool) and resets it for one run. State that escapes into the
// Result — firings, output and arrival maps — is always allocated fresh;
// only the non-escaping scratch is pooled.
func (p *Prepared) getSim(opt Options) *sim {
	g := p.g
	s, _ := p.pool.Get().(*sim)
	if s == nil {
		s = &sim{
			g:        g,
			streams:  make([][]value.Value, g.NumNodes()),
			arcHas:   make([]bool, g.NumArcs()),
			arcVal:   make([]value.Value, g.NumArcs()),
			srcPos:   make([]int, g.NumNodes()),
			cand:     newBitset(g.NumNodes()),
			nextCand: newBitset(g.NumNodes()),
		}
	} else {
		// arcVal and the plan arenas may hold stale data; both are
		// write-before-read (value.Value carries no pointers, so stale
		// entries pin nothing). The candidate set is fully re-seeded by the
		// run prologue, which marks every cell.
		clear(s.arcHas)
		clear(s.srcPos)
	}
	s.firings = make([]int, g.NumNodes())
	s.outs = map[string][]value.Value{}
	s.arrs = map[string][]Arrival{}
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
	s.firings, s.outs, s.arrs = nil, nil, nil
	s.tr, s.prog = nil, nil
	p.pool.Put(s)
}

// resolveStreams binds each source cell's stream for one run: the stream
// compiled into the graph unless inputs overrides it by label. Resolution
// writes only buf (reused when its capacity allows), never the graph, so
// concurrent runs of one graph cannot race on input binding.
func resolveStreams(g *graph.Graph, inputs map[string][]value.Value, buf [][]value.Value) ([][]value.Value, error) {
	nn := g.NumNodes()
	if cap(buf) < nn {
		buf = make([][]value.Value, nn)
	}
	buf = buf[:nn]
	matched := 0
	for _, n := range g.Nodes() {
		if n.Op != graph.OpSource {
			buf[n.ID] = nil
			continue
		}
		buf[n.ID] = n.Stream
		if inputs != nil {
			if sv, ok := inputs[n.Label]; ok {
				buf[n.ID] = sv
				matched++
			}
		}
	}
	if matched < len(inputs) {
		srcLabels := make(map[string]bool)
		for _, n := range g.Nodes() {
			if n.Op == graph.OpSource {
				srcLabels[n.Label] = true
			}
		}
		for label := range inputs {
			if !srcLabels[label] {
				return nil, fmt.Errorf("exec: input %q names no source cell", label)
			}
		}
	}
	return buf, nil
}
