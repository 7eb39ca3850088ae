// Package exec simulates machine-level instruction graphs at the level of
// the static dataflow firing discipline (Dennis & Gao, CSG Memo 233, §3).
//
// Time is discrete. At each cycle every enabled cell fires simultaneously:
// it consumes the tokens on its operand arcs and the results appear on its
// destination arcs one cycle later. A cell is enabled when all required
// operands are present AND every destination arc it is about to write is
// empty — the emptiness condition is the acknowledge discipline (an arc is
// emptied exactly when its consumer fires, which is when the acknowledge
// packet would arrive).
//
// This model makes the paper's timing facts theorems of the simulator:
//
//   - a producer/consumer pair alternates, so each cell fires at most once
//     per two cycles ("about two instruction times");
//   - a fully pipelined graph sustains an initiation interval (II) of 2;
//   - a directed cycle of L cells carrying k tokens runs at II = L/k
//     (Todd's 3-cell for-iter loop: II = 3; the companion-function 4-cell
//     loop with two circulating values: II = 2).
//
// The inner loop is event-driven: a cell is re-examined only when one of
// its input arcs fills or one of its output arcs drains (a dense ready
// bitset, not a per-cycle scan of all cells), token state lives in flat
// slices indexed by arc ID, and per-cycle firing plans are carved out of
// reusable arenas, so steady-state simulation performs no allocation.
//
// A run uses one of two engines: the scalar loop here, or, when
// Options.Batch > 1, the lane-batched loop of batch.go, whose lanes
// Options.Workers may shard across goroutines. Both read the graph's
// pointer-free instruction table (graph.Lower), built once per Prepared,
// never the graph's nodes and arcs.
package exec

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Options configures a simulation run.
type Options struct {
	// MaxCycles bounds the run; 0 means DefaultMaxCycles. Exceeding the
	// bound returns an error (a live graph fed finite streams always
	// quiesces, so hitting the bound indicates a livelock or a bound that
	// is simply too small for the stream length). The partial Result —
	// firings, outputs produced so far, and the Stalled diagnostics — is
	// returned alongside the error.
	MaxCycles int
	// Tracer, if non-nil, receives the structured observability event
	// stream (firings, token/ack arrivals, stall classifications). Tracing
	// is passive: it never alters scheduling, results, or cycle counts.
	Tracer trace.Tracer
	// Progress, if non-nil, is updated live as the run advances (one
	// atomic store per cycle, one add per sink arrival) so another
	// goroutine — the telemetry server — can observe cycle progress
	// mid-run. Like Tracer it is passive and costs one nil check when
	// unset.
	Progress *trace.Progress
	// Workers shards a batched run (Batch > 1) by contiguous lane ranges
	// across min(Workers, Batch) goroutines. Lanes never interact, so the
	// workers need no barriers and every lane's result is byte-identical
	// for any worker count. A scalar run is sequential whatever Workers
	// says.
	Workers int
	// Ctx, if non-nil, cancels the run early: the loop polls Ctx.Done()
	// every CancelCadence cycles (the Progress-counter cadence bounds how
	// stale the poll can be) and, when fired, returns the partial Result —
	// outputs and firings so far, Canceled set, a "canceled" stall
	// diagnostic — together with a wrapping error. A nil Ctx costs one nil
	// check per cadence window, preserving the zero-perturbation
	// guarantee; an un-canceled Ctx never alters results or cycle counts.
	Ctx context.Context
	// Batch widens the run to B independent token lanes advancing through
	// one compiled graph in a single Run: every arc slot, source position,
	// and firing counter is replicated per lane (structure-of-arrays,
	// lane-minor), so the per-cycle candidate walk and instruction decode
	// are paid once per batch instead of once per stream. 0 or 1 runs the
	// scalar engine; at most MaxBatch lanes (the candidate set keeps one
	// 64-bit lane mask per cell). Lane 0 always consumes the streams bound
	// on the graph and is byte-identical to a scalar run — outputs,
	// arrival cycles, firings, stall diagnostics, and the lane-0 trace
	// event stream all match.
	Batch int
	// LaneInputs supplies per-lane source streams for a batched run,
	// keyed by source-cell label (the declared input name): LaneInputs[l]
	// feeds lane l. A nil entry, a missing key, and always lane 0 fall
	// back to the base streams (Inputs, or the streams bound on the
	// graph). len(LaneInputs) must not exceed Batch.
	LaneInputs []map[string][]value.Value
	// Inputs, when non-nil, overrides source streams by source-cell label
	// (the declared input name) for this run only: the compiled graph is
	// never written, so one graph — in particular one cached Prepared
	// artifact — can run concurrently with different inputs. A missing
	// key falls back to the stream bound on the graph; a key naming no
	// source cell is an error. In a batched run Inputs is the base every
	// lane defaults to and LaneInputs overrides per lane.
	Inputs map[string][]value.Value
}

// CancelCadence is how many simulated cycles pass between polls of
// Options.Ctx (a power of two so the check is a mask). Cancellation of an
// in-flight run is observed within at most this many cycles.
const CancelCadence = 1024

// DefaultMaxCycles bounds runs when Options.MaxCycles is zero.
const DefaultMaxCycles = 10_000_000

// Result holds the outcome of a simulation run.
type Result struct {
	// Cycles is the cycle count until quiescence (no cell enabled).
	Cycles int
	// Firings counts how many times each cell fired, indexed by NodeID of
	// the simulated (FIFO-expanded) graph, Graph.
	Firings []int
	// Outputs holds each sink's received stream, keyed by sink label.
	Outputs map[string][]value.Value
	// Arrivals holds each sink's arrival cycles, keyed by sink label:
	// Arrivals[label][i] is the cycle at which Outputs[label][i] reached
	// the sink, so the two slices have equal lengths (both nil for a sink
	// that received nothing).
	Arrivals map[string][]int
	// Clean reports whether the graph drained completely: all sources
	// exhausted, no token left on any arc. A false value with non-empty
	// Stalled means the pipeline jammed or starved.
	Clean bool
	// Canceled reports that Options.Ctx fired before quiescence; the
	// Result carries whatever the run produced up to the cancellation
	// cycle, and Stalled leads with a "canceled" diagnostic.
	Canceled bool
	// Stalled lists diagnostics for cells left with partial state.
	Stalled []string
	// Batch is the lane count of a batched run (0 for scalar runs).
	Batch int
	// Lanes holds per-lane views of a batched run (nil for scalar runs).
	// Lanes[0] describes the same lane as the top-level fields, which
	// always report lane 0 so existing consumers observe exactly what a
	// scalar run would have produced.
	Lanes []LaneResult

	prep *Prepared // the run's Prepared, for Graph
}

// Graph returns the graph actually simulated: the FIFO-expanded graph
// whose node IDs index Firings and name the cells of trace events and
// stall diagnostics, built on first use (see graph.Table.Graph).
func (r *Result) Graph() *graph.Graph { return r.prep.tab.Graph() }

// Output returns the stream received by the sink with the given label.
func (r *Result) Output(label string) []value.Value { return r.Outputs[label] }

// SteadyII returns the steady-state initiation interval of a sink's arrival
// cycles: the average cycle gap between consecutive arrivals over a window
// chosen to exclude transients. With at least 8 samples the window is the
// middle half of the stream, excluding both the pipeline fill and drain
// transients; with 4–7 samples only the fill prefix (the first quarter) is
// skipped — there are too few samples to also trim the tail; with 2–3
// samples the whole stream is the window. It returns 0 for fewer than two
// arrivals.
func SteadyII(cycles []int) float64 {
	if len(cycles) < 2 {
		return 0
	}
	lo, hi := 0, len(cycles)-1
	switch {
	case len(cycles) >= 8:
		lo, hi = len(cycles)/4, 3*len(cycles)/4
	case len(cycles) >= 4:
		lo = len(cycles) / 4
	}
	return float64(cycles[hi]-cycles[lo]) / float64(hi-lo)
}

// II returns the steady-state initiation interval observed at the given
// sink (see SteadyII for the measurement window).
func (r *Result) II(label string) float64 { return SteadyII(r.Arrivals[label]) }

// FullyPipelined reports whether the sink sustained the maximum rate of one
// result per two instruction times (§3).
func (r *Result) FullyPipelined(label string) bool {
	ii := r.II(label)
	return ii > 0 && ii <= 2.0+1e-9
}

// bitset is a dense set of cell IDs — the event-driven ready set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// sim is the scalar engine's mutable machine state. It reads the cells
// and arcs only through the Prepared's instruction table.
type sim struct {
	t       *graph.Table
	streams [][]value.Value // resolved stream per source index (see graph.Table.BindStreams)
	arcHas  []bool          // token presence per arc ID
	arcVal  []value.Value   // token value per arc ID (meaningful when arcHas)
	srcPos  []int           // next stream index per cell (sources/ctlgens)
	firings []int
	// sinkOuts and sinkCycs hold each sink's received stream and arrival
	// cycles, indexed by sink number; the label-keyed Result maps are built
	// from them once, after the run.
	sinkOuts [][]value.Value
	sinkCycs [][]int
	outCap   int // preallocation hint for sink streams (max source length)
	tr       trace.Tracer
	prog     *trace.Progress

	// candidate tracking: a cell's enabledness only changes when one of
	// its input arcs fills or one of its output arcs drains, so only those
	// cells are re-planned each cycle.
	cand     bitset
	nextCand bitset

	// per-cycle scratch, reused across cycles: the firing plans and the
	// arena their consume/produce arc-ID runs are carved from.
	plans  []firing
	arcIDs []int32
	vals   []value.Value
}

// firing is a cell's planned effect, computed against the start-of-cycle
// snapshot and applied after all cells have been examined. The consume and
// produce arc-ID runs live in the sim's arcIDs arena as [c0:c1) and
// [p0:p1) index ranges (ranges stay valid across arena growth).
type firing struct {
	cell     int32
	c0, c1   int32 // arcIDs[c0:c1]: arcs to clear
	p0, p1   int32 // arcIDs[p0:p1]: arcs to fill
	out      value.Value
	sink     bool
	advance  bool // sources and control generators advance their position
	produced bool // whether out is meaningful (gates may discard)
}

// Run simulates the graph until no cell is enabled and returns the result.
// When MaxCycles is exhausted before quiescence the partial Result (with
// Stalled diagnostics populated) is returned together with the error.
//
// If Options.Ctx carries an active obs.Span, Run annotates it with the
// run's outcome and per-lane children after the simulation loop
// has ended — never from inside it — so an attached span cannot perturb
// outputs, firing order, or cycle counts (see span.go).
func Run(g *graph.Graph, opt Options) (*Result, error) {
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.Run(opt)
}

// Run executes the prepared graph. Safe for concurrent use: every call
// draws its mutable run state from the free-list pool (scalar engine) or
// builds it fresh (batched engine); the table itself is only read. See
// Options.Inputs for running with per-call input streams.
func (p *Prepared) Run(opt Options) (*Result, error) {
	res, err := p.runPrepared(opt)
	annotateSpan(opt.Ctx, res, err, opt.Workers, opt.Batch)
	return res, err
}

func (p *Prepared) runPrepared(opt Options) (*Result, error) {
	t := p.tab
	maxCycles := opt.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	if b := opt.Batch; b > 1 {
		return runBatched(p, opt, maxCycles, b)
	}
	s := p.getSim(opt)
	defer p.putSim(s)
	var err error
	if s.streams, err = t.BindStreams(opt.Inputs, nil, 1, s.streams); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if s.tr != nil {
		s.tr.Start(trace.Meta{Cells: t.CellNames()})
	}
	for _, in := range t.Inits {
		s.arcHas[in.Arc] = true
		s.arcVal[in.Arc] = in.Val
	}
	for id := range t.Cells {
		s.cand.set(id)
	}
	for _, stream := range s.streams {
		s.outCap = max(s.outCap, len(stream))
	}

	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}
	canceled := false
	cycle := 0
	for ; cycle < maxCycles; cycle++ {
		if done != nil && cycle&(CancelCadence-1) == 0 {
			select {
			case <-done:
				canceled = true
			default:
			}
			if canceled {
				break
			}
		}
		if s.prog != nil {
			s.prog.Cycle.Store(int64(cycle))
		}
		plans := s.collect()
		if len(plans) == 0 {
			break
		}
		if s.tr != nil {
			s.emitStalls(cycle, plans)
		}
		s.apply(cycle, plans)
	}

	res := &Result{
		Cycles:   cycle,
		Firings:  s.firings,
		Outputs:  make(map[string][]value.Value, len(t.Sinks)),
		Arrivals: make(map[string][]int, len(t.Sinks)),
		prep:     p,
	}
	for k, label := range t.Sinks {
		res.Outputs[label] = s.sinkOuts[k]
		res.Arrivals[label] = s.sinkCycs[k]
	}
	res.Clean, res.Stalled = p.drainState(s.streams, func(c int) int { return s.srcPos[c] }, s.arcHas, s.arcVal, 0, 1)
	if canceled {
		return markCanceled(res, cycle, opt.Ctx)
	}
	if cycle >= maxCycles {
		return res, fmt.Errorf("exec: no quiescence after %d cycles (livelock or MaxCycles too small)", maxCycles)
	}
	return res, nil
}

// markCanceled stamps a partial result with the cancellation diagnostics
// shared by the scalar and batched engines.
func markCanceled(res *Result, cycle int, ctx context.Context) (*Result, error) {
	res.Canceled = true
	res.Clean = false
	res.Stalled = append([]string{fmt.Sprintf("canceled: run stopped by context at cycle %d before quiescence", cycle)},
		res.Stalled...)
	return res, fmt.Errorf("exec: run canceled at cycle %d: %w", cycle, context.Cause(ctx))
}

// collect examines candidate cells against the current snapshot and returns
// the firing plans of all enabled cells in deterministic (cell ID) order.
// Each candidate is planned straight into the next plans slot, kept only
// if the cell is enabled. Returning the plan by value put a stack copy on
// every candidate's path, and the loop's speed then varied with the
// caller's stack depth.
func (s *sim) collect() []firing {
	s.plans = s.plans[:0]
	s.arcIDs = s.arcIDs[:0]
	for w, word := range s.cand {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.plans = append(s.plans, firing{})
			if s.plan(int32(id), &s.plans[len(s.plans)-1]) != trace.ReasonNone {
				s.plans = s.plans[:len(s.plans)-1]
			}
		}
	}
	return s.plans
}

// emitStalls classifies every cell that will not fire this cycle and emits
// one stall event per waiting cell (tracing only; plan is semantically
// side-effect free, so this pass cannot perturb the run).
func (s *sim) emitStalls(cycle int, plans []firing) {
	fires := newBitset(len(s.t.Cells))
	for _, f := range plans {
		fires.set(int(f.cell))
	}
	var f firing
	for id := range s.t.Cells {
		if fires.has(id) {
			continue
		}
		if why := s.plan(int32(id), &f); why == trace.ReasonOperandWait || why == trace.ReasonAckWait {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindStall,
				Cell: int32(id), Port: -1, Unit: -1, Src: -1, Dst: -1, Reason: why,
			})
		}
	}
}

// operand returns the value on port p of cell c and whether it is present.
func (s *sim) operand(c *graph.Cell, p int) (value.Value, bool) {
	port := s.t.Port(c, p)
	if port < 0 {
		return s.t.Lits[^port], true
	}
	if !s.arcHas[port] {
		return value.Value{}, false
	}
	return s.arcVal[port], true
}

// consumeArc appends port p's arc (if any) to the arena's consume run.
func (s *sim) consumeArc(c *graph.Cell, p int) {
	if port := s.t.Port(c, p); port >= 0 {
		s.arcIDs = append(s.arcIDs, port)
	}
}

// plan decides whether cell id can fire now and, if so, writes its effects
// into *f. The returned reason is trace.ReasonNone when the cell is enabled
// and otherwise classifies the stall (used by the observability layer; plan
// touches only *f and scratch arenas either way, never machine state).
func (s *sim) plan(id int32, f *firing) trace.Reason {
	t := s.t
	c := &t.Cells[id]
	*f = firing{cell: id}
	f.c0 = int32(len(s.arcIDs))
	nports := int(c.P1 - c.P0)

	// Phase 1: operand availability and result computation.
	switch c.Op {
	case graph.OpSource:
		stream := s.streams[c.Aux]
		if s.srcPos[id] >= len(stream) {
			return trace.ReasonDone
		}
		f.out = stream[s.srcPos[id]]
		f.advance = true
		f.produced = true

	case graph.OpCtlGen:
		pat := t.Patterns[c.Aux]
		if total := pat.Len(); total >= 0 && s.srcPos[id] >= total {
			return trace.ReasonDone
		}
		f.out = value.B(pat.At(s.srcPos[id]))
		f.advance = true
		f.produced = true

	case graph.OpSink:
		v, ok := s.operand(c, 0)
		if !ok {
			return trace.ReasonOperandWait
		}
		f.out = v
		f.sink = true
		s.consumeArc(c, 0)

	case graph.OpMerge:
		ctl, ok := s.operand(c, 0)
		if !ok {
			return trace.ReasonOperandWait
		}
		sel := 2
		if ctl.AsBool() {
			sel = 1
		}
		v, ok := s.operand(c, sel)
		if !ok {
			return trace.ReasonOperandWait
		}
		// extra control ports (gates) must also be present
		for p := 3; p < nports; p++ {
			if _, ok := s.operand(c, p); !ok {
				return trace.ReasonOperandWait
			}
		}
		f.out = v
		f.produced = true
		s.consumeArc(c, 0)
		s.consumeArc(c, sel)
		for p := 3; p < nports; p++ {
			s.consumeArc(c, p)
		}

	case graph.OpTGate, graph.OpFGate:
		ctl, okc := s.operand(c, 0)
		data, okd := s.operand(c, 1)
		if !okc || !okd {
			return trace.ReasonOperandWait
		}
		for p := 2; p < nports; p++ {
			if _, ok := s.operand(c, p); !ok {
				return trace.ReasonOperandWait
			}
		}
		pass := ctl.AsBool()
		if c.Op == graph.OpFGate {
			pass = !pass
		}
		f.out = data
		f.produced = pass // false: discard, consuming both operands
		s.arcIDs = append(s.arcIDs, t.Cins[c.C0:c.C1]...)

	default: // ordinary operator and identity cells
		if cap(s.vals) < nports {
			s.vals = make([]value.Value, nports)
		}
		vals := s.vals[:nports]
		for p := range vals {
			v, ok := s.operand(c, p)
			if !ok {
				return trace.ReasonOperandWait
			}
			vals[p] = v
		}
		f.out = ApplyOp(c.Op, vals)
		f.produced = true
		s.arcIDs = append(s.arcIDs, t.Cins[c.C0:c.C1]...)
	}
	f.c1 = int32(len(s.arcIDs))
	f.p0 = f.c1

	// Phase 2: destination availability. Every arc this firing will write
	// must be empty (its previous token acknowledged). Gated arcs are
	// written only when their gate operand is true.
	if f.produced {
		for _, d := range t.Outs[c.O0:c.O1] {
			if d.Gate >= 0 {
				gv, ok := s.operand(c, int(d.Gate))
				if !ok {
					return trace.ReasonOperandWait // gate operand itself not ready
				}
				if !gv.AsBool() {
					continue
				}
			}
			if s.arcHas[d.Arc] {
				return trace.ReasonAckWait
			}
			s.arcIDs = append(s.arcIDs, d.Arc)
		}
	}
	f.p1 = int32(len(s.arcIDs))
	return trace.ReasonNone
}

// ApplyOp evaluates an ordinary (non-gate, non-merge) operator cell; it is
// shared with the packet-level machine simulator.
func ApplyOp(op graph.Op, v []value.Value) value.Value {
	switch op {
	case graph.OpID:
		return v[0]
	case graph.OpAdd:
		return value.Add(v[0], v[1])
	case graph.OpSub:
		return value.Sub(v[0], v[1])
	case graph.OpMul:
		return value.Mul(v[0], v[1])
	case graph.OpDiv:
		return value.Div(v[0], v[1])
	case graph.OpMin:
		return value.Min(v[0], v[1])
	case graph.OpMax:
		return value.Max(v[0], v[1])
	case graph.OpNeg:
		return value.Neg(v[0])
	case graph.OpAbs:
		return value.Abs(v[0])
	case graph.OpLT:
		return value.LT(v[0], v[1])
	case graph.OpLE:
		return value.LE(v[0], v[1])
	case graph.OpGT:
		return value.GT(v[0], v[1])
	case graph.OpGE:
		return value.GE(v[0], v[1])
	case graph.OpEQ:
		return value.EQ(v[0], v[1])
	case graph.OpNE:
		return value.NE(v[0], v[1])
	case graph.OpAnd:
		return value.And(v[0], v[1])
	case graph.OpOr:
		return value.Or(v[0], v[1])
	case graph.OpNot:
		return value.Not(v[0])
	default:
		panic(fmt.Sprintf("exec: ApplyOp on %s", op))
	}
}

// applyBinary is ApplyOp for two-operand cells with the operands passed in
// registers — the batched planner's hot path, where a scratch-slice
// round-trip per lane would dominate the amortized firing cost.
func applyBinary(op graph.Op, a, b value.Value) value.Value {
	switch op {
	case graph.OpAdd:
		return value.Add(a, b)
	case graph.OpSub:
		return value.Sub(a, b)
	case graph.OpMul:
		return value.Mul(a, b)
	case graph.OpDiv:
		return value.Div(a, b)
	case graph.OpMin:
		return value.Min(a, b)
	case graph.OpMax:
		return value.Max(a, b)
	case graph.OpLT:
		return value.LT(a, b)
	case graph.OpLE:
		return value.LE(a, b)
	case graph.OpGT:
		return value.GT(a, b)
	case graph.OpGE:
		return value.GE(a, b)
	case graph.OpEQ:
		return value.EQ(a, b)
	case graph.OpNE:
		return value.NE(a, b)
	case graph.OpAnd:
		return value.And(a, b)
	case graph.OpOr:
		return value.Or(a, b)
	default:
		panic(fmt.Sprintf("exec: applyBinary on %s", op))
	}
}

// apply commits the cycle's firings and updates the candidate set. A cell
// is re-planned next cycle only when an arc it reads or writes changed: a
// drained arc wakes its producer and a filled arc its consumer. A firing
// that consumed no arc token and wrote no arc changed nothing that could
// wake it, so only such a cell marks itself; any other firing leaves it
// unable to fire again until one of those arc events arrives.
func (s *sim) apply(cycle int, plans []firing) {
	s.nextCand.reset()
	arcs := s.t.Arcs
	for i := range plans {
		f := &plans[i]
		id := int(f.cell)
		s.firings[id]++
		if f.c0 == f.c1 && f.p0 == f.p1 {
			s.nextCand.set(id)
		}
		if s.tr != nil {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindFiring,
				Cell: f.cell, Port: -1, Unit: -1, Src: -1, Dst: -1,
			})
		}
		for _, aid := range s.arcIDs[f.c0:f.c1] {
			s.arcHas[aid] = false
			// the producer of a drained arc may now be enabled
			producer := arcs[aid].From
			s.nextCand.set(int(producer))
			if s.tr != nil {
				// draining the arc is the moment the acknowledge packet
				// would reach the producer
				s.tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindAck,
					Cell: producer, Port: -1, Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
		if f.advance {
			s.srcPos[id]++
		}
		if f.sink {
			k := s.t.Cells[id].Aux
			s.sinkOuts[k] = appendPrealloc(s.sinkOuts[k], f.out, s.outCap)
			s.sinkCycs[k] = appendPrealloc(s.sinkCycs[k], cycle, s.outCap)
			if s.prog != nil {
				s.prog.Arrivals.Add(1)
			}
		}
	}
	for i := range plans {
		f := &plans[i]
		for _, aid := range s.arcIDs[f.p0:f.p1] {
			s.arcHas[aid] = true
			s.arcVal[aid] = f.out
			a := arcs[aid]
			s.nextCand.set(int(a.To))
			if s.tr != nil {
				s.tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindToken,
					Cell: a.To, Port: a.Port, Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
	}
	s.cand, s.nextCand = s.nextCand, s.cand
}

// appendPrealloc appends to a sink's value or cycle stream, sizing the
// buffer for the whole expected stream on first use so steady-state
// appends never reallocate.
func appendPrealloc[T any](s []T, v T, hint int) []T {
	if s == nil && hint > 0 {
		s = make([]T, 0, hint)
	}
	return append(s, v)
}

// drainState reports whether one lane of a quiescent run is fully drained
// and lists diagnostics for any leftover state. streams holds the lane's
// source streams by source index and pos its stream positions by cell;
// arc slot state lives at has[aid*stride+lane]. Names come from the
// expanded graph, which only a run that left state behind builds.
func (p *Prepared) drainState(streams [][]value.Value, pos func(cell int) int, has []bool, val []value.Value, lane, stride int) (bool, []string) {
	t := p.tab
	var stalled []string
	for id := range t.Cells {
		switch c := &t.Cells[id]; c.Op {
		case graph.OpSource:
			if stream := streams[c.Aux]; pos(id) < len(stream) {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d stream values unsent",
					t.CellName(id), len(stream)-pos(id), len(stream)))
			}
		case graph.OpCtlGen:
			if total := t.Patterns[c.Aux].Len(); total >= 0 && pos(id) < total {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d control values unsent",
					t.CellName(id), total-pos(id), total))
			}
		}
	}
	for aid, a := range t.Arcs {
		if slot := aid*stride + lane; has[slot] {
			stalled = append(stalled, fmt.Sprintf("token %s stranded on arc %s -> %s port %d",
				val[slot], t.CellName(int(a.From)), t.CellName(int(a.To)), a.Port))
		}
	}
	return len(stalled) == 0, stalled
}

// Describe summarizes a result for reports and error messages.
func Describe(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d clean=%v\n", r.Cycles, r.Clean)
	labels := make([]string, 0, len(r.Outputs))
	for l := range r.Outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "sink %q: %d values, II=%.3f\n", l, len(r.Outputs[l]), r.II(l))
	}
	for _, d := range r.Stalled {
		fmt.Fprintf(&b, "stall: %s\n", d)
	}
	return b.String()
}
