package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"staticpipe/internal/obs"
)

// spans is the traced run's recorder. Every call the benchmark makes into
// the program gets one obs span — name, start, end, and the op span as its
// parent — annotated with the CPU time the call consumed, and the self CPU
// time of every layer is accumulated as the run goes. A nil *spans is the
// untraced run: call just runs the function and part runs nothing.
type spans struct {
	tree *obs.Tree
	op   *obs.Span
	opC0 time.Duration
	self map[string]time.Duration
	// parts is the CPU time of the calls part made, which an untraced
	// run does not make.
	parts time.Duration
}

func newSpans(workload string, seed int64) *spans {
	return &spans{
		tree: obs.NewTree("bench", fmt.Sprintf("%s seed=%d", workload, seed)),
		self: map[string]time.Duration{},
	}
}

// beginOp opens the span every call of one op hangs under.
func (s *spans) beginOp(label string) {
	if s == nil {
		return
	}
	s.op = s.tree.Root().Child("op", label)
	s.opC0 = cpuTime()
}

func (s *spans) endOp() {
	if s == nil {
		return
	}
	s.op.Set("cpu_us", us(cpuTime()-s.opC0))
	s.op.End()
	s.op = nil
}

// call runs f as one call into layer name.
func (s *spans) call(name string, f func()) {
	s.record(name, f)
}

// part makes, directly on the same input, a call the program makes only
// inside the call into layer outer, so that outer's self time is its own
// time minus its parts. The untraced run makes no such call.
func (s *spans) part(outer, name string, f func()) {
	if s == nil {
		return
	}
	sp, c := s.record(name, f)
	sp.Set("part_of", outer)
	s.self[outer] -= c
	s.parts += c
}

func (s *spans) record(name string, f func()) (*obs.Span, time.Duration) {
	if s == nil {
		f()
		return nil, 0
	}
	sp := s.op.Child("call", name)
	c0 := cpuTime()
	f()
	c := cpuTime() - c0
	sp.Set("cpu_us", us(c))
	sp.End()
	s.self[name] += c
	return sp, c
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfMs returns each layer's mean self CPU time per op, in ms.
func (s *spans) selfMs(ops int) map[string]float64 {
	out := map[string]float64{}
	for name, d := range s.self {
		out[name] = ms(d) / float64(ops)
	}
	return out
}

// write exports the span tree as Chrome trace-event JSON.
func (s *spans) write(path string) error {
	s.tree.Root().End()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, s.tree.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
