// Batched multi-stream engine: one compiled graph, B independent input
// streams, arc state widened to B token lanes (the ROADMAP's throughput
// analogue of §9's delay-for-rate interleaving — independent iterations
// share one mapped graph so interpretation cost is amortized).
//
// Layout is structure-of-arrays, lane-minor: arc slot state lives at index
// arcID*B+lane, source positions and firing counters at nodeID*B+lane, so
// one cell's B lanes are contiguous. The candidate set is a dense cell
// bitset paired with a per-cell 64-bit lane mask (hence the MaxBatch = 64
// lane limit): a (cell, lane) pair is re-planned only when one of that
// lane's input arcs fills or output arcs drains — the scalar engine's
// event-driven wake rule applied per lane. The cells are the Prepared's
// instruction table, shared with the scalar engine; a run builds only its
// lane streams and lane state.
//
// Amortization is what makes batching pay: cells whose plan shape is
// lane-invariant (sources, sinks, and ordinary operators with ungated
// destinations — the bulk of any array kernel) are planned once per cycle
// for all pending lanes and commit ONE firing record carrying a lane
// mask, so instruction decode, candidate-walk, arena, and wakeup
// bookkeeping are paid per cell instead of per stream; only the
// lane-varying residue (operand presence bits, token moves, ApplyOp)
// costs per lane. Cells whose consume/produce arc sets depend on token
// values (merge selection, gates, gated destinations, control generators)
// fall back to exact per-lane records.
//
// Lanes are mutually independent — a lane's firing decisions read only
// that lane's slots — so each lane's execution is provably the scalar
// engine's execution of that lane's streams, advanced on a shared cycle
// counter. Lane 0 is byte-identical to a scalar run (outputs, arrival
// cycles, firings, stall diagnostics, trace event stream); differential
// tests and the CI sweep pin this. Lane independence is also why Workers
// shards a batched run by contiguous lane ranges: the workers share no
// mutable state (their lane slots interleave but never alias) and need no
// barriers, so determinism for any worker count holds by construction
// rather than by phase protocol.
package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// MaxBatch is the largest lane count a batched Run supports: the candidate
// set keeps one 64-bit lane mask per cell.
const MaxBatch = 64

// LaneResult is one lane's view of a batched run. Its fields mean exactly
// what the same-named Result fields mean for a scalar run of that lane's
// input streams: Arrivals[label][i] is the cycle at which the lane's
// Outputs[label][i] reached the sink.
type LaneResult struct {
	Cycles   int
	Firings  []int
	Outputs  map[string][]value.Value
	Arrivals map[string][]int
	Clean    bool
	Canceled bool
	Stalled  []string
}

// Lane returns lane l's view of a batched result in the scalar Result
// shape, so lane consumers (II measurement, Describe, the service layer)
// reuse every scalar helper unchanged. On a scalar result Lane(0) is the
// result itself; out-of-range lanes return nil.
func (r *Result) Lane(l int) *Result {
	if r.Batch <= 1 {
		if l == 0 {
			return r
		}
		return nil
	}
	if l < 0 || l >= len(r.Lanes) {
		return nil
	}
	lr := r.Lanes[l]
	return &Result{
		Cycles:   lr.Cycles,
		Firings:  lr.Firings,
		Outputs:  lr.Outputs,
		Arrivals: lr.Arrivals,
		Clean:    lr.Clean,
		Canceled: lr.Canceled,
		Stalled:  lr.Stalled,
		prep:     r.prep,
	}
}

// bsim is the lane-widened machine state shared by all lane-range workers.
// Workers touch only their own lanes' interleaved slots, so no field here
// needs synchronization.
type bsim struct {
	p *Prepared
	t *graph.Table
	B int

	// streams holds each lane's source stream, sourceIdx*B+lane (lane 0
	// is the base binding).
	streams [][]value.Value
	has     []bool        // token presence, arcID*B+lane
	val     []value.Value // token value, arcID*B+lane
	srcPos  []int32       // next stream index, cellID*B+lane
	frns    []int         // firing counts, cellID*B+lane

	sinkOuts [][]value.Value // received stream, sinkIdx*B+lane
	sinkCycs [][]int         // arrival cycles parallel to sinkOuts
	outCap   []int           // per-lane preallocation hint

	laneCycles   []int
	laneDone     []bool
	laneCanceled []bool
	laneMaxed    []bool

	tr       trace.Tracer
	prog     *trace.Progress
	laneCtrs []*trace.LaneCounters

	maxCycles int
}

// runBatched is the Batch > 1 entry point.
func runBatched(p *Prepared, opt Options, maxCycles, B int) (*Result, error) {
	if B > MaxBatch {
		return nil, fmt.Errorf("exec: Batch %d exceeds the %d-lane limit", B, MaxBatch)
	}
	s, err := newBsim(p, opt, maxCycles, B)
	if err != nil {
		return nil, err
	}
	w := opt.Workers
	if w > B {
		w = B
	}
	if w < 1 {
		w = 1
	}
	workers := make([]*bworker, w)
	per, extra := B/w, B%w
	lo := 0
	for i := range workers {
		n := per
		if i < extra {
			n++
		}
		workers[i] = newBworker(s, opt, lo, lo+n, i == 0)
		lo += n
	}
	if w == 1 {
		workers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, bw := range workers {
			wg.Add(1)
			go func(bw *bworker) {
				defer wg.Done()
				bw.run()
			}(bw)
		}
		wg.Wait()
	}
	return s.assemble(opt)
}

// newBsim binds one run's lane streams and builds its lane state; the
// cells come from the Prepared's table.
func newBsim(p *Prepared, opt Options, maxCycles, B int) (*bsim, error) {
	t := p.tab
	streams, err := t.BindStreams(opt.Inputs, opt.LaneInputs, B, nil)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	nc, na := len(t.Cells), len(t.Arcs)
	s := &bsim{
		p: p, t: t, B: B,
		streams:  streams,
		has:      make([]bool, na*B),
		val:      make([]value.Value, na*B),
		srcPos:   make([]int32, nc*B),
		frns:     make([]int, nc*B),
		sinkOuts: make([][]value.Value, len(t.Sinks)*B),
		sinkCycs: make([][]int, len(t.Sinks)*B),
		outCap:   make([]int, B),

		laneCycles:   make([]int, B),
		laneDone:     make([]bool, B),
		laneCanceled: make([]bool, B),
		laneMaxed:    make([]bool, B),

		tr: opt.Tracer, prog: opt.Progress,
		maxCycles: maxCycles,
	}
	for l := 0; l < B; l++ {
		for k := range t.Sources {
			s.outCap[l] = max(s.outCap[l], len(streams[k*B+l]))
		}
	}
	for _, in := range t.Inits {
		for l := 0; l < B; l++ {
			s.has[int(in.Arc)*B+l] = true
			s.val[int(in.Arc)*B+l] = in.Val
		}
	}
	if s.tr != nil {
		s.tr.Start(trace.Meta{Cells: t.CellNames()})
	}
	if s.prog != nil {
		s.laneCtrs = s.prog.InitLanes(B)
	}
	return s, nil
}

// bfiring is one firing record: a cell plus the mask of lanes firing it
// this cycle. The consume and produce arc-ID runs live in the owning
// worker's arena as [c0:c1) and [p0:p1); they are shared by every lane in
// fire (fast shapes) or belong to a single lane (slow shapes, where fire
// has one bit). Output values live lane-indexed at outVals[v0+lane].
type bfiring struct {
	cell           int32
	fire           uint64 // lanes firing
	prod           uint64 // lanes producing a result (gates may discard)
	c0, c1, p0, p1 int32
	v0             int32
	srcArc         int32 // >= 0: lane values come from this arc's slots, not outVals
	advance        bool
	sink           bool
	// inPlace: the fill phase computed results directly into the single
	// output arc's value slots; apply only raises the has bits.
	inPlace bool
}

// bworker advances the contiguous lane range [l0, l1). The worker owning
// lane 0 (traced) additionally drives tracing and the progress cycle
// counter. Workers share the bsim's flat state but write only their own
// lanes' slots.
type bworker struct {
	s      *bsim
	l0, l1 int
	all    uint64 // laneBits(), cached for the dense-loop check
	traced bool

	cand, next bitset   // cells with a nonzero lane mask
	mask       []uint64 // per-cell lane mask (absolute lane bits)

	plans   []bfiring
	arcIDs  []int32
	outVals []value.Value
	vals    []value.Value

	done     <-chan struct{}
	canceled bool
}

func newBworker(s *bsim, opt Options, l0, l1 int, traced bool) *bworker {
	nc := len(s.t.Cells)
	w := &bworker{
		s: s, l0: l0, l1: l1, traced: traced,
		cand: newBitset(nc),
		next: newBitset(nc),
		mask: make([]uint64, nc),
	}
	if opt.Ctx != nil {
		w.done = opt.Ctx.Done()
	}
	w.all = w.laneBits()
	for i := 0; i < nc; i++ {
		w.cand.set(i)
		w.mask[i] = w.all
	}
	return w
}

// laneBits returns the mask with one bit per lane in [l0, l1).
func (w *bworker) laneBits() uint64 {
	n := w.l1 - w.l0
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << uint(w.l0)
}

// run is the worker's cycle loop — the batched analogue of Run's scalar
// loop. A lane quiesces at the first cycle it contributes no firing (no
// firing means no state change, so none ever follow — the same fixed
// point the scalar loop's empty-collect break detects).
func (w *bworker) run() {
	s := w.s
	alive := w.laneBits()
	cycle := 0
	for ; cycle < s.maxCycles; cycle++ {
		if w.done != nil && cycle&(CancelCadence-1) == 0 {
			select {
			case <-w.done:
				w.canceled = true
			default:
			}
			if w.canceled {
				break
			}
		}
		if w.traced && s.prog != nil {
			s.prog.Cycle.Store(int64(cycle))
		}
		plans := w.collect()
		if len(plans) == 0 {
			break
		}
		var fired uint64
		for i := range plans {
			fired |= plans[i].fire
		}
		if quiet := alive &^ fired; quiet != 0 {
			for q := quiet; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				s.laneDone[l] = true
				s.laneCycles[l] = cycle
				if s.laneCtrs != nil {
					s.laneCtrs[l].Cycles.Store(int64(cycle))
					s.laneCtrs[l].Done.Store(1)
				}
			}
			alive &= fired
		}
		if s.laneCtrs != nil {
			for a := alive; a != 0; a &= a - 1 {
				s.laneCtrs[bits.TrailingZeros64(a)].Cycles.Store(int64(cycle))
			}
		}
		// Lane-0 stall classification mirrors the scalar engine's: emitted
		// only on cycles where lane 0 fires at least once (the scalar loop
		// breaks before classifying on its empty cycle).
		if w.traced && s.tr != nil && fired&1 != 0 {
			w.emitStalls(cycle, plans)
		}
		w.apply(cycle, plans)
	}
	for l := w.l0; l < w.l1; l++ {
		if s.laneDone[l] {
			continue
		}
		s.laneDone[l] = true
		s.laneCycles[l] = cycle
		if s.laneCtrs != nil {
			s.laneCtrs[l].Cycles.Store(int64(cycle))
			s.laneCtrs[l].Done.Store(1)
		}
		switch {
		case w.canceled:
			s.laneCanceled[l] = true
		case cycle >= s.maxCycles:
			s.laneMaxed[l] = true
		}
	}
}

// collect walks the candidate cells in ascending order and plans every
// marked (cell, lane) pair; lane masks are consumed on read, so a cell
// leaves the set unless apply re-marks it.
func (w *bworker) collect() []bfiring {
	w.plans = w.plans[:0]
	w.arcIDs = w.arcIDs[:0]
	w.outVals = w.outVals[:0]
	for wi, word := range w.cand {
		for word != 0 {
			ci := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			lanes := w.mask[ci]
			w.mask[ci] = 0
			w.planCell(int32(ci), lanes)
		}
	}
	return w.plans
}

// reserveVals extends the output-value arena by one B-slot lane-indexed
// segment and returns its offset. Stale slots are never read: apply only
// touches lanes in a record's fire/prod masks.
func (w *bworker) reserveVals() int32 {
	v0 := len(w.outVals)
	need := v0 + w.s.B
	if cap(w.outVals) < need {
		grown := make([]value.Value, v0, 2*need)
		copy(grown, w.outVals)
		w.outVals = grown
	}
	w.outVals = w.outVals[:need]
	return int32(v0)
}

// planCell plans one cell for all its pending lanes: fast shapes commit a
// single mask record, slow shapes fall back to exact per-lane planning.
func (w *bworker) planCell(ci int32, lanes uint64) {
	s := w.s
	t := s.t
	B := s.B
	c := &t.Cells[ci]
	switch s.p.shapes[ci] {
	case shapeSlow:
		for ; lanes != 0; lanes &= lanes - 1 {
			w.planLane(ci, bits.TrailingZeros64(lanes))
		}
		return

	case shapeSource:
		fire := uint64(0)
		base := int(ci) * B
		streams := s.streams[int(c.Aux)*B : int(c.Aux+1)*B]
		for m := lanes; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if int(s.srcPos[base+l]) < len(streams[l]) {
				fire |= 1 << uint(l)
			}
		}
		fire = w.destFree(c, fire)
		if fire == 0 {
			return
		}
		f := bfiring{cell: ci, fire: fire, prod: fire, advance: true, srcArc: -1, v0: w.reserveVals()}
		f.c0 = int32(len(w.arcIDs))
		f.c1 = f.c0
		f.p0 = f.c0
		for _, d := range t.Outs[c.O0:c.O1] {
			w.arcIDs = append(w.arcIDs, d.Arc)
		}
		f.p1 = int32(len(w.arcIDs))
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.outVals[int(f.v0)+l] = streams[l][s.srcPos[base+l]]
		}
		w.plans = append(w.plans, f)

	case shapeSink:
		aid := t.Port(c, 0)
		ab := int(aid) * B
		fire := lanes
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if !s.has[ab+l] {
				fire &^= 1 << uint(l)
			}
		}
		if fire == 0 {
			return
		}
		f := bfiring{cell: ci, fire: fire, sink: true, srcArc: aid}
		f.c0 = int32(len(w.arcIDs))
		w.arcIDs = append(w.arcIDs, aid)
		f.c1 = f.c0 + 1
		f.p0, f.p1 = f.c1, f.c1
		w.plans = append(w.plans, f)

	case shapeApply:
		ports := t.Ports[c.P0:c.P1]
		cins := t.Cins[c.C0:c.C1]
		outs := t.Outs[c.O0:c.O1]
		fire := lanes
		if len(cins) == 1 && len(outs) == 1 {
			// fused presence + destination check: one pass over the lanes
			inb := int(cins[0]) * B
			outb := int(outs[0].Arc) * B
			fire = 0
			if lanes == w.all {
				// dense steady state: straight-line over the contiguous
				// range, no TrailingZeros per lane
				in := s.has[inb+w.l0 : inb+w.l1 : inb+w.l1]
				out := s.has[outb+w.l0 : outb+w.l1 : outb+w.l1]
				for l := range in {
					if in[l] && !out[l] {
						fire |= 1 << uint(w.l0+l)
					}
				}
			} else {
				for m := lanes; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if s.has[inb+l] && !s.has[outb+l] {
						fire |= 1 << uint(l)
					}
				}
			}
		} else {
			for _, aid := range cins {
				ab := int(aid) * B
				for m := fire; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if !s.has[ab+l] {
						fire &^= 1 << uint(l)
					}
				}
				if fire == 0 {
					return
				}
			}
			fire = w.destFree(c, fire)
		}
		if fire == 0 {
			return
		}
		f := bfiring{cell: ci, fire: fire, prod: fire, srcArc: -1}
		f.c0 = int32(len(w.arcIDs))
		w.arcIDs = append(w.arcIDs, cins...)
		f.c1 = int32(len(w.arcIDs))
		f.p0 = f.c1
		for _, d := range outs {
			w.arcIDs = append(w.arcIDs, d.Arc)
		}
		f.p1 = int32(len(w.arcIDs))
		// Results land directly in the output arc's value slots when the
		// cell has exactly one: the destination was just checked free, its
		// consumer cannot fire this cycle (no token), and only this worker
		// touches these lanes — so the staging buffer and apply-phase copy
		// are pure overhead. Fan-out cells keep the staging arena.
		var out []value.Value
		if len(outs) == 1 && c.Op != graph.OpID {
			f.inPlace = true
			ob := int(outs[0].Arc) * B
			out = s.val[ob : ob+B : ob+B]
		}
		switch {
		case c.Op == graph.OpID && len(ports) == 1 && ports[0] >= 0:
			// identity cells move one token: the fill phase copies straight
			// from the (consumed but still intact) input-arc slots
			f.srcArc = ports[0]
		case len(ports) == 2 && ports[0] >= 0 && ports[1] < 0:
			// binary op, literal right operand — the dominant shape in
			// compiled array kernels; operands stay in registers instead of
			// round-tripping through the scratch operand slice
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			w.applyLitRight(c.Op, out, int(ports[0])*B, t.Lits[^ports[1]], fire)
		case len(ports) == 2 && ports[0] < 0 && ports[1] >= 0:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			a1 := int(ports[1]) * B
			lit := t.Lits[^ports[0]]
			for m := fire; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				out[l] = applyBinary(c.Op, lit, s.val[a1+l])
			}
		case len(ports) == 2 && ports[0] >= 0 && ports[1] >= 0:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			w.applyArcArc(c.Op, out, int(ports[0])*B, int(ports[1])*B, fire)
		default:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			if cap(w.vals) < len(ports) {
				w.vals = make([]value.Value, len(ports))
			}
			vals := w.vals[:len(ports)]
			for m := fire; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				for p, port := range ports {
					if port >= 0 {
						vals[p] = s.val[int(port)*B+l]
					} else {
						vals[p] = t.Lits[^port]
					}
				}
				out[l] = ApplyOp(c.Op, vals)
			}
		}
		w.plans = append(w.plans, f)
	}
}

// applyLitRight fills the output slots of a binary cell whose right
// operand is a literal. The op dispatch hoists out of the lane loop, and
// when every lane of the worker fires (the steady state of a saturated
// pipeline) the loop runs dense over the contiguous lane range so the
// inlined all-Real value fast paths compile to straight-line code.
func (w *bworker) applyLitRight(op graph.Op, dst []value.Value, a0 int, lit value.Value, fire uint64) {
	s := w.s
	if fire == w.all {
		out := dst[w.l0:w.l1]
		in := s.val[a0+w.l0 : a0+w.l1 : a0+w.l1]
		switch op {
		case graph.OpAdd:
			for l := range out {
				out[l] = value.Add(in[l], lit)
			}
		case graph.OpSub:
			for l := range out {
				out[l] = value.Sub(in[l], lit)
			}
		case graph.OpMul:
			for l := range out {
				out[l] = value.Mul(in[l], lit)
			}
		default:
			for l := range out {
				out[l] = applyBinary(op, in[l], lit)
			}
		}
		return
	}
	for m := fire; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = applyBinary(op, s.val[a0+l], lit)
	}
}

// applyArcArc is applyLitRight for a binary cell with both operands on
// arcs.
func (w *bworker) applyArcArc(op graph.Op, dst []value.Value, a0, a1 int, fire uint64) {
	s := w.s
	if fire == w.all {
		out := dst[w.l0:w.l1]
		in0 := s.val[a0+w.l0 : a0+w.l1 : a0+w.l1]
		in1 := s.val[a1+w.l0 : a1+w.l1 : a1+w.l1]
		switch op {
		case graph.OpAdd:
			for l := range out {
				out[l] = value.Add(in0[l], in1[l])
			}
		case graph.OpSub:
			for l := range out {
				out[l] = value.Sub(in0[l], in1[l])
			}
		case graph.OpMul:
			for l := range out {
				out[l] = value.Mul(in0[l], in1[l])
			}
		default:
			for l := range out {
				out[l] = applyBinary(op, in0[l], in1[l])
			}
		}
		return
	}
	for m := fire; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = applyBinary(op, s.val[a0+l], s.val[a1+l])
	}
}

// destFree clears every lane whose destination arcs are not all empty
// (only valid for ungated-destination shapes).
func (w *bworker) destFree(c *graph.Cell, fire uint64) uint64 {
	B := w.s.B
	for _, d := range w.s.t.Outs[c.O0:c.O1] {
		ab := int(d.Arc) * B
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if w.s.has[ab+l] {
				fire &^= 1 << uint(l)
			}
		}
		if fire == 0 {
			return 0
		}
	}
	return fire
}

// operand returns the value at port p of cell c in the given lane and
// whether it is present (literals are always present).
func (w *bworker) operand(c *graph.Cell, p, lane int) (value.Value, bool) {
	port := w.s.t.Port(c, p)
	if port < 0 {
		return w.s.t.Lits[^port], true
	}
	slot := int(port)*w.s.B + lane
	if !w.s.has[slot] {
		return value.Value{}, false
	}
	return w.s.val[slot], true
}

// consumeArc appends port p's arc (if any) to the arena's consume run.
func (w *bworker) consumeArc(c *graph.Cell, p int) {
	if port := w.s.t.Port(c, p); port >= 0 {
		w.arcIDs = append(w.arcIDs, port)
	}
}

// planLane is the scalar engine's plan, transcribed against lane-strided
// state: it decides whether (cell ci, lane) can fire now and, if enabled,
// appends a single-lane firing record. The returned reason classifies a
// stall exactly as the scalar plan does (the stall pass probes through
// it).
func (w *bworker) planLane(ci int32, lane int) trace.Reason {
	s := w.s
	t := s.t
	B := s.B
	c := &t.Cells[ci]
	nports := int(c.P1 - c.P0)
	var out value.Value
	var advance, produced, sink bool
	f := bfiring{cell: ci, fire: 1 << uint(lane), srcArc: -1}
	f.c0 = int32(len(w.arcIDs))

	switch c.Op {
	case graph.OpSource:
		stream := s.streams[int(c.Aux)*B+lane]
		pos := int(s.srcPos[int(ci)*B+lane])
		if pos >= len(stream) {
			return trace.ReasonDone
		}
		out = stream[pos]
		advance = true
		produced = true

	case graph.OpCtlGen:
		pos := int(s.srcPos[int(ci)*B+lane])
		pat := t.Patterns[c.Aux]
		if total := pat.Len(); total >= 0 && pos >= total {
			return trace.ReasonDone
		}
		out = value.B(pat.At(pos))
		advance = true
		produced = true

	case graph.OpSink:
		v, ok := w.operand(c, 0, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		out = v
		sink = true
		w.consumeArc(c, 0)

	case graph.OpMerge:
		ctl, ok := w.operand(c, 0, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		sel := 2
		if ctl.AsBool() {
			sel = 1
		}
		v, ok := w.operand(c, sel, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		for p := 3; p < nports; p++ {
			if _, ok := w.operand(c, p, lane); !ok {
				return trace.ReasonOperandWait
			}
		}
		out = v
		produced = true
		w.consumeArc(c, 0)
		w.consumeArc(c, sel)
		for p := 3; p < nports; p++ {
			w.consumeArc(c, p)
		}

	case graph.OpTGate, graph.OpFGate:
		ctl, okc := w.operand(c, 0, lane)
		data, okd := w.operand(c, 1, lane)
		if !okc || !okd {
			return trace.ReasonOperandWait
		}
		for p := 2; p < nports; p++ {
			if _, ok := w.operand(c, p, lane); !ok {
				return trace.ReasonOperandWait
			}
		}
		pass := ctl.AsBool()
		if c.Op == graph.OpFGate {
			pass = !pass
		}
		out = data
		produced = pass
		w.arcIDs = append(w.arcIDs, t.Cins[c.C0:c.C1]...)

	default: // ordinary operator and identity cells
		if cap(w.vals) < nports {
			w.vals = make([]value.Value, nports)
		}
		vals := w.vals[:nports]
		for p := range vals {
			v, ok := w.operand(c, p, lane)
			if !ok {
				return trace.ReasonOperandWait
			}
			vals[p] = v
		}
		out = ApplyOp(c.Op, vals)
		produced = true
		w.arcIDs = append(w.arcIDs, t.Cins[c.C0:c.C1]...)
	}
	f.c1 = int32(len(w.arcIDs))
	f.p0 = f.c1

	if produced {
		for _, d := range t.Outs[c.O0:c.O1] {
			if d.Gate >= 0 {
				gv, ok := w.operand(c, int(d.Gate), lane)
				if !ok {
					return trace.ReasonOperandWait
				}
				if !gv.AsBool() {
					continue
				}
			}
			if s.has[int(d.Arc)*B+lane] {
				return trace.ReasonAckWait
			}
			w.arcIDs = append(w.arcIDs, d.Arc)
		}
	}
	f.p1 = int32(len(w.arcIDs))
	if produced {
		f.prod = f.fire
	}
	f.advance = advance
	if sink {
		// slow-path sinks still reference the consumed arc for values; a
		// literal-fed sink has no arc and keeps the outVals copy.
		if aid := t.Port(c, 0); aid >= 0 {
			f.sink = true
			f.srcArc = aid
			w.plans = append(w.plans, f)
			return trace.ReasonNone
		}
	}
	f.sink = sink
	f.v0 = w.reserveVals()
	w.outVals[int(f.v0)+lane] = out
	w.plans = append(w.plans, f)
	return trace.ReasonNone
}

// probe classifies (cell ci, lane 0) without committing anything to the
// plan arenas (the stall pass runs between collect and apply).
func (w *bworker) probe(ci int32) trace.Reason {
	nPlans, nArcs, nVals := len(w.plans), len(w.arcIDs), len(w.outVals)
	why := w.planLane(ci, 0)
	w.plans = w.plans[:nPlans]
	w.arcIDs = w.arcIDs[:nArcs]
	w.outVals = w.outVals[:nVals]
	return why
}

// emitStalls classifies every cell that will not fire in lane 0 this
// cycle, mirroring the scalar engine's stall pass event for event.
func (w *bworker) emitStalls(cycle int, plans []bfiring) {
	s := w.s
	firing := newBitset(len(s.t.Cells))
	for i := range plans {
		if plans[i].fire&1 != 0 {
			firing.set(int(plans[i].cell))
		}
	}
	for id := range s.t.Cells {
		if firing.has(id) {
			continue
		}
		if why := w.probe(int32(id)); why == trace.ReasonOperandWait || why == trace.ReasonAckWait {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindStall,
				Cell: int32(id), Port: -1, Unit: -1, Src: -1, Dst: -1, Reason: why,
			})
		}
	}
}

// apply commits the cycle's firing records and re-marks the (cell, lane)
// pairs whose enabledness may have changed, by the scalar engine's wake
// rule: a drained arc wakes its producer's lanes, a filled arc its
// consumer's, and a record marks its own cell only when it consumed and
// wrote no arc. Lane-0 events replay in the scalar engine's exact order:
// records are collected cell-ascending (with slow-shape lanes inner), so
// the lane-0 subsequence is cell-ascending — the scalar collect order.
func (w *bworker) apply(cycle int, plans []bfiring) {
	s := w.s
	B := s.B
	arcs := s.t.Arcs
	w.next.reset()
	var tr trace.Tracer
	if w.traced {
		tr = s.tr
	}
	for i := range plans {
		f := &plans[i]
		ci := int(f.cell)
		base := ci * B
		fire := f.fire
		if f.c0 == f.c1 && f.p0 == f.p1 {
			w.next.set(ci)
			w.mask[ci] |= fire
		}
		if fire == w.all {
			frns := s.frns[base+w.l0 : base+w.l1 : base+w.l1]
			for l := range frns {
				frns[l]++
			}
		} else {
			for m := fire; m != 0; m &= m - 1 {
				s.frns[base+bits.TrailingZeros64(m)]++
			}
		}
		if tr != nil && fire&1 != 0 {
			tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindFiring,
				Cell: f.cell, Port: -1, Unit: -1, Src: -1, Dst: -1,
			})
		}
		dense := fire == w.all
		for _, aid := range w.arcIDs[f.c0:f.c1] {
			ab := int(aid) * B
			if dense {
				h := s.has[ab+w.l0 : ab+w.l1]
				for l := range h {
					h[l] = false
				}
			} else {
				for m := fire; m != 0; m &= m - 1 {
					s.has[ab+bits.TrailingZeros64(m)] = false
				}
			}
			producer := arcs[aid].From
			w.next.set(int(producer))
			w.mask[producer] |= fire
			if tr != nil && fire&1 != 0 {
				tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindAck,
					Cell: producer, Port: -1, Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
		if f.advance {
			for m := fire; m != 0; m &= m - 1 {
				s.srcPos[base+bits.TrailingZeros64(m)]++
			}
		}
		if f.sink {
			sb := int(s.t.Cells[ci].Aux) * B
			vb := int(f.srcArc) * B // sink records always carry srcArc
			if fire == w.all && s.laneCtrs == nil {
				vals := s.val[vb+w.l0 : vb+w.l1 : vb+w.l1]
				for l, v := range vals {
					i := sb + w.l0 + l
					s.sinkOuts[i] = appendPrealloc(s.sinkOuts[i], v, s.outCap[w.l0+l])
					s.sinkCycs[i] = appendPrealloc(s.sinkCycs[i], cycle, s.outCap[w.l0+l])
				}
			} else {
				for m := fire; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					v := s.val[vb+l]
					s.sinkOuts[sb+l] = appendPrealloc(s.sinkOuts[sb+l], v, s.outCap[l])
					s.sinkCycs[sb+l] = appendPrealloc(s.sinkCycs[sb+l], cycle, s.outCap[l])
					if s.laneCtrs != nil {
						s.laneCtrs[l].Arrivals.Add(1)
					}
				}
			}
			if s.prog != nil {
				s.prog.Arrivals.Add(int64(bits.OnesCount64(fire)))
			}
		}
	}
	for i := range plans {
		f := &plans[i]
		prod := f.prod
		if prod == 0 {
			continue
		}
		dense := prod == w.all
		for _, aid := range w.arcIDs[f.p0:f.p1] {
			ab := int(aid) * B
			switch {
			case f.inPlace:
				// values are already in the arc slots; just raise has
				if dense {
					h := s.has[ab+w.l0 : ab+w.l1]
					for l := range h {
						h[l] = true
					}
				} else {
					for m := prod; m != 0; m &= m - 1 {
						s.has[ab+bits.TrailingZeros64(m)] = true
					}
				}
			case dense && f.srcArc >= 0:
				vb := int(f.srcArc) * B
				copy(s.val[ab+w.l0:ab+w.l1], s.val[vb+w.l0:vb+w.l1])
				h := s.has[ab+w.l0 : ab+w.l1]
				for l := range h {
					h[l] = true
				}
			case dense:
				copy(s.val[ab+w.l0:ab+w.l1], w.outVals[int(f.v0)+w.l0:int(f.v0)+w.l1])
				h := s.has[ab+w.l0 : ab+w.l1]
				for l := range h {
					h[l] = true
				}
			case f.srcArc >= 0:
				vb := int(f.srcArc) * B
				for m := prod; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					s.has[ab+l] = true
					s.val[ab+l] = s.val[vb+l]
				}
			default:
				for m := prod; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					s.has[ab+l] = true
					s.val[ab+l] = w.outVals[int(f.v0)+l]
				}
			}
			a := arcs[aid]
			w.next.set(int(a.To))
			w.mask[a.To] |= prod
			if tr != nil && prod&1 != 0 {
				tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindToken,
					Cell: a.To, Port: a.Port, Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
	}
	w.cand, w.next = w.next, w.cand
}

// drainLane is the scalar drainState for one lane.
func (s *bsim) drainLane(l int) (bool, []string) {
	B := s.B
	streams := make([][]value.Value, len(s.t.Sources))
	for k := range streams {
		streams[k] = s.streams[k*B+l]
	}
	return s.p.drainState(streams, func(c int) int { return int(s.srcPos[c*B+l]) }, s.has, s.val, l, B)
}

// assemble builds the batched Result: top-level fields are lane 0's view,
// Lanes carries every lane's.
func (s *bsim) assemble(opt Options) (*Result, error) {
	nc, sinks := len(s.t.Cells), s.t.Sinks
	res := &Result{
		Batch: s.B,
		Lanes: make([]LaneResult, s.B),
		prep:  s.p,
	}
	anyCanceled, anyMaxed := false, false
	for l := 0; l < s.B; l++ {
		lr := &res.Lanes[l]
		lr.Cycles = s.laneCycles[l]
		lr.Firings = make([]int, nc)
		for i := 0; i < nc; i++ {
			lr.Firings[i] = s.frns[i*s.B+l]
		}
		lr.Outputs = make(map[string][]value.Value, len(sinks))
		lr.Arrivals = make(map[string][]int, len(sinks))
		for k, label := range sinks {
			lr.Outputs[label] = s.sinkOuts[k*s.B+l]
			lr.Arrivals[label] = s.sinkCycs[k*s.B+l]
		}
		lr.Canceled = s.laneCanceled[l]
		lr.Clean, lr.Stalled = s.drainLane(l)
		anyCanceled = anyCanceled || s.laneCanceled[l]
		anyMaxed = anyMaxed || s.laneMaxed[l]
	}
	l0 := &res.Lanes[0]
	res.Cycles = l0.Cycles
	res.Firings = l0.Firings
	res.Outputs = l0.Outputs
	res.Arrivals = l0.Arrivals
	res.Clean = l0.Clean
	res.Stalled = l0.Stalled
	// Decorate canceled lane views after the top-level copy so the
	// top-level diagnostic is prepended exactly once (by markCanceled).
	for l := 0; l < s.B; l++ {
		if s.laneCanceled[l] {
			lr := &res.Lanes[l]
			lr.Clean = false
			lr.Stalled = append([]string{fmt.Sprintf(
				"canceled: run stopped by context at cycle %d before quiescence", lr.Cycles)},
				lr.Stalled...)
		}
	}
	if anyCanceled {
		cancelCycle := 0
		for l := 0; l < s.B; l++ {
			if s.laneCanceled[l] && s.laneCycles[l] > cancelCycle {
				cancelCycle = s.laneCycles[l]
			}
		}
		if s.laneCanceled[0] {
			cancelCycle = s.laneCycles[0]
		}
		return markCanceled(res, cancelCycle, opt.Ctx)
	}
	if anyMaxed {
		return res, fmt.Errorf("exec: no quiescence after %d cycles (livelock or MaxCycles too small)", s.maxCycles)
	}
	return res, nil
}
