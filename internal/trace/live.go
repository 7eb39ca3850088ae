package trace

import (
	"sync"
	"sync/atomic"
)

// Live is the concurrency-safe snapshotting layer over Metrics: the
// simulator goroutine Emits into it like any other sink, while reader
// goroutines (the telemetry HTTP server, a watchdog) call Snapshot at any
// time and receive a consistent deep copy.
//
// The sinks in this package are deliberately not goroutine-safe — a
// single-threaded simulator should not pay for locks it does not need.
// Live is the one guarded sink: anything shared across goroutines (a
// sink scraped while the run is in flight, or a sink that several
// simulator instances would otherwise share) must go through it. Like all
// tracing it is passive: it changes no scheduling, results, or cycle
// counts, only the wall-clock cost of each emission.
type Live struct {
	mu sync.Mutex
	m  *Metrics
}

// NewLive returns a guarded, snapshot-capable metrics sink.
func NewLive() *Live { return &Live{m: NewMetrics()} }

// Start forwards the run metadata to the inner Metrics.
func (l *Live) Start(meta Meta) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.Start(meta)
}

// Emit aggregates one event under the lock.
func (l *Live) Emit(e Event) {
	l.mu.Lock()
	l.m.Emit(e)
	l.mu.Unlock()
}

// Snapshot returns a consistent deep copy of the aggregates as of now. The
// caller owns the copy; the simulator keeps emitting into the original.
func (l *Live) Snapshot() *Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Clone()
}

// Progress is the simulators' lock-free live progress counter: one atomic
// store per simulated cycle plus one add per sink arrival when attached,
// nothing when nil. Unlike the event stream it is readable mid-run without
// any lock, so a scrape can report cycle progress even when no tracer is
// attached at all.
type Progress struct {
	// Cycle is the most recently simulated cycle.
	Cycle atomic.Int64
	// Arrivals counts values received by sinks so far.
	Arrivals atomic.Int64

	// lanes points at the per-lane counter blocks of a batched run (nil
	// for scalar runs). Published atomically so a scrape racing the
	// engine's InitLanes sees either nothing or the full set.
	lanes atomic.Pointer[[]*LaneCounters]
}

// LaneCounters is the lock-free live progress block one lane of a batched
// run updates as it advances; the telemetry exporter reads it mid-run the
// same way it reads Cycle/Arrivals. Lane progress skew — the spread
// between the fastest and slowest live lane — falls directly out of the
// per-lane Cycles values.
type LaneCounters struct {
	// Cycles is the most recent cycle this lane was still live at (its
	// quiescence cycle once Done is set).
	Cycles atomic.Int64
	// Arrivals counts values this lane's sinks have received so far.
	Arrivals atomic.Int64
	// Done is 1 once the lane has quiesced (or been canceled).
	Done atomic.Int64
}

// InitLanes installs n fresh per-lane counter blocks and returns them; the
// batched engines call it once at run start.
func (p *Progress) InitLanes(n int) []*LaneCounters {
	l := make([]*LaneCounters, n)
	for i := range l {
		l[i] = &LaneCounters{}
	}
	p.lanes.Store(&l)
	return l
}

// BatchLanes returns the per-lane counter blocks, or nil when the run is
// scalar (or has not initialized batching yet).
func (p *Progress) BatchLanes() []*LaneCounters {
	if v := p.lanes.Load(); v != nil {
		return *v
	}
	return nil
}
