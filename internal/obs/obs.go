// Package obs is the end-to-end job observability layer: lightweight span
// trees tracing where a job's wall-clock went (admission → queue → run →
// per-lane execution), an always-on bounded flight recorder of
// recent span trees, admission decisions, and stall snapshots, and a
// declarative SLO engine evaluating sliding-window burn rates over the
// service's outcome stream.
//
// Spans are deliberately lighter than a distributed-tracing SDK: one
// process, one mutex per tree, no sampling, no export pipeline. A span is
// created when a phase starts, ended when it finishes, and annotated with
// whatever the phase learned (cycles simulated, estimate-vs-actual cost,
// stall diagnostics). Trees propagate through context.Context — the same
// context that already carries cancellation into both simulator hot loops —
// so the cores can attach per-lane children without any new plumbing. All recording happens at phase boundaries, never inside a
// simulation cycle loop: an attached span changes no simulator output and
// stays within the progress-counter zero-perturbation bound.
//
// Every method is safe on a nil *Span and a nil *Tree, mirroring the
// nil-safe tracer discipline of internal/trace: code paths annotate
// unconditionally and detached runs pay one nil check.
package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Span kinds used across the service and the simulator cores. Kinds are
// open-ended strings; these are the ones the span tree of a dfserve job is
// built from.
const (
	KindJob       = "job"            // root: one client job, submission to terminal state
	KindAdmission = "admission"      // compile + cost estimate + admission decision
	KindCache     = "cache.lookup"   // artifact-cache probe inside admission (hit/miss/coalesced)
	KindQueueWait = "queue.wait"     // admitted to the offload queue until a worker picks it up
	KindPlacement = "placement.plan" // contention-aware placement planning (dftrace/dfsim -place)
	KindRun       = "run"            // one simulator execution
	KindLane      = "lane"           // one lane of a batched run
)

// Attr is one ordered key/value annotation on a span. Values should be
// strings, bools, integers, or floats so the JSON export stays flat.
type Attr struct {
	K string
	V any
}

// Span is one timed phase in a tree. Create children with Child/ChildAt,
// close with End, annotate with Set. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so recording code never branches
// on whether observability is attached.
type Span struct {
	tree     *Tree
	id       int64
	parent   int64
	kind     string
	name     string
	start    time.Time
	end      time.Time // zero while open
	attrs    []Attr
	children []*Span
}

// Tree is one span tree with its own lock and ID space. The zero value is
// not usable; call NewTree.
type Tree struct {
	mu     sync.Mutex
	nextID int64
	root   *Span
}

// NewTree starts a tree whose root span begins now.
func NewTree(kind, name string) *Tree {
	t := &Tree{nextID: 1}
	t.root = &Span{tree: t, id: 1, kind: kind, name: name, start: time.Now()}
	return t
}

// Root returns the tree's root span (nil on a nil tree).
func (t *Tree) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Child starts a child span of s beginning now.
func (s *Span) Child(kind, name string) *Span {
	return s.ChildAt(kind, name, time.Now(), time.Time{})
}

// ChildAt records a child span with explicit bounds — the lane recording
// path, where the interval is known only after the run: a zero
// end leaves the span open.
func (s *Span) ChildAt(kind, name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tree
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	c := &Span{tree: t, id: t.nextID, parent: s.id, kind: kind, name: name, start: start, end: end}
	s.children = append(s.children, c)
	return c
}

// End closes the span now; closing twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
}

// Set appends one annotation. Repeated keys append rather than overwrite;
// the export shows the last value.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	s.attrs = append(s.attrs, Attr{K: key, V: v})
}

// SetName replaces the span's name — for identifiers assigned after the
// span opened, like a job ID the admission controller hands out mid-phase.
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	s.name = name
}

// StartTime returns when the span began (zero on nil).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.tree.mu.Lock()
	defer s.tree.mu.Unlock()
	return s.start
}

// SpanJSON is the wire shape of one span in the exported tree.
type SpanJSON struct {
	ID     int64          `json:"id"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name,omitempty"`
	Start  time.Time      `json:"start"`
	DurSec float64        `json:"duration_sec"`
	Open   bool           `json:"open,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	// Children are ordered by creation, which is also start order for the
	// service's phase spans.
	Children []*SpanJSON `json:"children,omitempty"`
}

// Snapshot renders the tree as a consistent JSON-able copy; open spans
// report their duration as of now. Safe to call while spans are still
// being recorded.
func (t *Tree) Snapshot() *SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	return t.root.snapshotLocked(now)
}

func (s *Span) snapshotLocked(now time.Time) *SpanJSON {
	j := &SpanJSON{ID: s.id, Kind: s.kind, Name: s.name, Start: s.start}
	end := s.end
	if end.IsZero() {
		j.Open = true
		end = now
	}
	j.DurSec = end.Sub(s.start).Seconds()
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			j.Attrs[a.K] = a.V
		}
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.snapshotLocked(now))
	}
	return j
}

// MarshalJSON renders the tree via Snapshot, so a *Tree can be embedded
// directly in JSON responses.
func (t *Tree) MarshalJSON() ([]byte, error) { return json.Marshal(t.Snapshot()) }

// Walk visits every span of a snapshot depth-first.
func (j *SpanJSON) Walk(f func(*SpanJSON)) {
	if j == nil {
		return
	}
	f(j)
	for _, c := range j.Children {
		c.Walk(f)
	}
}

// Find returns the first span of the given kind in depth-first order, or
// nil.
func (j *SpanJSON) Find(kind string) *SpanJSON {
	var hit *SpanJSON
	j.Walk(func(s *SpanJSON) {
		if hit == nil && s.Kind == kind {
			hit = s
		}
	})
	return hit
}
