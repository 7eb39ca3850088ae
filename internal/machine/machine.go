// Package machine is a cycle-accurate packet-level simulator of the static
// dataflow architecture of §2 (Fig 1): processing elements (PE) holding
// instruction cells, pipelined function units (FU) executing shipped
// arithmetic, array memory units (AM) sourcing and sinking array streams,
// and a packet-switched routing network carrying operation, result, and
// acknowledge packets.
//
// Where package exec abstracts time to the firing discipline (one firing
// per two cycles is the maximum), this simulator exposes the machine
// effects the paper's §2 discusses: PE instruction bandwidth, function-unit
// latency, network transit and contention, and the split of packet traffic
// between processing elements and array memories ("one eighth or less of
// the operation packets would be sent to the array memories").
//
// The inner loop is event-driven: network transit and function-unit
// completion are tracked on time wheels indexed by due cycle (no per-cycle
// scans of in-flight lists), cells, operands and destinations are read
// from the graph's lowered instruction table (graph.Table), operand tokens
// live in per-arc slots, a cell that cannot fire is not planned again
// until a packet reaches it, packets are recycled through a free list
// together with their operation payload buffers, and sink buffers are
// preallocated. A run's allocations therefore do not grow with stream
// length (TestSteadyStateAllocationsFlat).
//
// Every run is one sequential cycle loop over run state pooled on a
// Prepared graph (Run is Prepare then Prepared.Run); a batched run
// (Config.Batch) runs its lanes through that loop one after another.
package machine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Assignment selects the instruction-cell → PE mapping strategy.
type Assignment int

const (
	// RoundRobin deals cells across PEs by cell id.
	RoundRobin Assignment = iota
	// Random shuffles cells across PEs (Config.Seed).
	Random
	// ByStage assigns contiguous runs of cell ids to each PE, which for
	// compiler-emitted graphs approximates grouping pipeline stages.
	ByStage
	// HotSpot piles every compute cell onto PE 0 — a deliberately bad
	// placement that saturates one PE's instruction bandwidth and network
	// port, used to exercise the contention observability.
	HotSpot
	// Placed uses the explicit cell → PE map in Config.Placement (package
	// place computes contention-aware ones).
	Placed
)

func (a Assignment) String() string {
	switch a {
	case Random:
		return "random"
	case ByStage:
		return "by-stage"
	case HotSpot:
		return "hot-spot"
	case Placed:
		return "placed"
	default:
		return "round-robin"
	}
}

// NetworkKind selects the routing-network model.
type NetworkKind int

const (
	// Crossbar has a fixed transit delay and per-endpoint delivery
	// serialization.
	Crossbar NetworkKind = iota
	// Butterfly is a log-stage packet-switched delta network of 2×2
	// switches [2].
	Butterfly
)

func (n NetworkKind) String() string {
	if n == Butterfly {
		return "butterfly"
	}
	return "crossbar"
}

// Config describes the machine.
type Config struct {
	// PEs is the processing-element count (default 4). Each PE retires at
	// most one enabled instruction per cycle.
	PEs int
	// FUs is the function-unit count (default 2). FUs are pipelined:
	// initiation one operation per cycle, completion after the op's
	// latency.
	FUs int
	// AMs is the array-memory unit count (default 1). Sources and sinks —
	// the long-lived arrays — reside in AMs; each AM performs one access
	// per cycle.
	AMs int
	// MulLatency and AddLatency configure FU pipeline depths (defaults 4
	// and 2). Mul covers MULT/DIV, Add covers ADD/SUB/MIN/MAX/NEG/ABS.
	MulLatency int
	AddLatency int
	// Network selects the RN model; NetDelay is the crossbar transit
	// delay (default 2).
	Network  NetworkKind
	NetDelay int
	// SplitNetworks uses two separate fabrics as Fig 1 draws them: one
	// routing network carrying operation packets to the function units,
	// and one distribution network carrying result and acknowledge packets
	// to instruction cells and array memories. It changes results only on
	// the Butterfly, whose switches the two kinds of traffic share when
	// unsplit. The Crossbar serializes per destination only, and the two
	// kinds never share a destination (operation packets go only to FUs,
	// result and acknowledge packets only to PEs and AMs), so on the
	// Crossbar a split run is cycle for cycle the unsplit one.
	SplitNetworks bool
	// Assign selects cell placement; Seed drives Random.
	Assign Assignment
	Seed   int64
	// Placement is the explicit cell → PE map used when Assign == Placed:
	// indexed by the table's cells (the FIFO-expanded graph's node IDs, as
	// package place plans them), each compute cell's entry must lie
	// in [0, PEs). Source and sink entries are ignored (those cells always
	// reside on array memories; package place emits -1 for them).
	// Placement never changes what a run computes — outputs are
	// byte-identical under any mapping — only where cells retire and which
	// packets cross the routing network.
	Placement []int
	// MaxCycles bounds the run (default 10M).
	MaxCycles int
	// Tracer, if non-nil, receives the structured observability event
	// stream (firings, packet sends/deliveries, FU activity, stall
	// classifications). Tracing is passive: it never alters scheduling,
	// results, or cycle counts.
	Tracer trace.Tracer
	// Progress, if non-nil, is updated live as the run advances (one
	// atomic store per cycle, one add per sink arrival) so another
	// goroutine — the telemetry server — can observe cycle progress
	// mid-run. Like Tracer it is passive and costs one nil check when
	// unset.
	Progress *trace.Progress
	// Ctx, if non-nil, cancels the run early: the cycle loop polls
	// Ctx.Done() every exec.CancelCadence cycles and, when fired, returns
	// the partial Result (Canceled set, a "canceled" stall diagnostic
	// first) together with a wrapping error. A nil Ctx costs one nil check
	// per cadence window; an un-canceled Ctx never alters results.
	Ctx context.Context
	// Batch widens the run to B independent input streams ("lanes"), run
	// one after another in lane order, each as a scalar run of that lane's
	// streams, so every lane's packet-level cycle accounting is exactly
	// what a scalar run would report. Lane 0 always consumes the
	// graph-bound streams and its view (the top-level Result fields, the
	// Tracer event stream) is byte-identical to a scalar run. At most
	// exec.MaxBatch lanes.
	Batch int
	// LaneInputs supplies per-lane source streams for a batched run,
	// keyed by source-cell label: LaneInputs[l] rebinds lane l's sources;
	// a nil map or a missing key falls back to the base streams (Inputs,
	// or the streams bound on the graph). Lane 0 ignores its entry.
	// len(LaneInputs) must not exceed Batch.
	LaneInputs []map[string][]value.Value
	// Inputs, when non-nil, overrides source streams by source-cell label
	// for this run only: the graph is never written, so one graph — in
	// particular one cached Prepared artifact — can run concurrently with
	// different inputs. A missing key falls back to the stream bound on
	// the graph; a key naming no source cell is an error. In a batched
	// run Inputs is the base every lane defaults to and LaneInputs
	// overrides per lane.
	Inputs map[string][]value.Value
}

func (c Config) withDefaults() Config {
	if c.PEs <= 0 {
		c.PEs = 4
	}
	if c.FUs <= 0 {
		c.FUs = 2
	}
	if c.AMs <= 0 {
		c.AMs = 1
	}
	if c.MulLatency <= 0 {
		c.MulLatency = 4
	}
	if c.AddLatency <= 0 {
		c.AddLatency = 2
	}
	if c.NetDelay <= 0 {
		c.NetDelay = 2
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 10_000_000
	}
	return c
}

// Result holds a machine run's outcome and statistics.
type Result struct {
	Cycles int
	// Outputs holds each sink's received stream, keyed by sink label.
	Outputs map[string][]value.Value
	// Arrivals holds each sink's arrival cycles, keyed by sink label:
	// Arrivals[label][i] is the cycle at which Outputs[label][i] reached
	// the sink, so the two slices have equal lengths (both nil for a sink
	// that received nothing).
	Arrivals map[string][]int
	// Packets counts routed traffic by kind.
	Packets map[string]int
	// AMPackets counts packets delivered to or sent from array memory
	// units; TotalPackets is all routed traffic.
	AMPackets    int
	TotalPackets int
	// PEBusy counts instruction retirements per PE; FUBusy counts
	// operations initiated per FU.
	PEBusy []int
	FUBusy []int
	Clean  bool
	// Canceled reports that Config.Ctx fired before quiescence; the
	// Result carries the work done up to the cancellation cycle and
	// Stalled leads with a "canceled" diagnostic.
	Canceled bool
	// Stalled carries diagnostics if the machine quiesced with work left.
	Stalled []string
	// Batch is the lane count of a batched run (0 for scalar runs); the
	// top-level fields above are lane 0's view.
	Batch int
	// Lanes holds each lane's view of a batched run; nil for scalar runs.
	Lanes []LaneResult

	tab *graph.Table // the run's table, for Graph
}

// Graph returns the graph actually simulated: the FIFO-expanded graph
// whose node IDs name the cells of trace events and index
// Config.Placement. It is built on first use and shared by every run of
// the table (see graph.Table.Graph).
func (r *Result) Graph() *graph.Graph { return r.tab.Graph() }

// LaneResult is one lane's view of a batched machine run. Its fields mean
// exactly what the same-named Result fields mean for a scalar run of that
// lane's streams: each lane is one. Arrivals[label][i] is the cycle at
// which the lane's Outputs[label][i] reached the sink.
type LaneResult struct {
	Cycles       int
	Outputs      map[string][]value.Value
	Arrivals     map[string][]int
	Packets      map[string]int
	AMPackets    int
	TotalPackets int
	PEBusy       []int
	FUBusy       []int
	Clean        bool
	Canceled     bool
	Stalled      []string
}

// Output returns the stream received by the lane's sink with the given label.
func (r *LaneResult) Output(label string) []value.Value { return r.Outputs[label] }

// II returns the lane's steady-state initiation interval at the named sink.
func (r *LaneResult) II(label string) float64 { return exec.SteadyII(r.Arrivals[label]) }

// Output returns the stream received by the sink with the given label.
func (r *Result) Output(label string) []value.Value { return r.Outputs[label] }

// II returns the steady-state initiation interval at the named sink (same
// transient-excluding measurement window as exec.SteadyII).
func (r *Result) II(label string) float64 { return exec.SteadyII(r.Arrivals[label]) }

// AMFraction returns the share of routed packets touching array memory.
func (r *Result) AMFraction() float64 {
	if r.TotalPackets == 0 {
		return 0
	}
	return float64(r.AMPackets) / float64(r.TotalPackets)
}

// Utilization returns mean PE busy fraction.
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 || len(r.PEBusy) == 0 {
		return 0
	}
	total := 0
	for _, b := range r.PEBusy {
		total += b
	}
	return float64(total) / float64(r.Cycles*len(r.PEBusy))
}

// cell is the machine-resident state of one instruction cell. Its op,
// operand ports and destinations are the table's; the operand tokens it
// holds sit in the run's per-arc slots.
type cell struct {
	endpoint    int
	pendingAcks int
	srcPos      int
	// stale marks a cell the retirement scan planned without success and
	// no packet has reached since. Its plan reads only its own operand
	// slots, pending acknowledges and source position, which change only
	// when a result or acknowledge packet arrives (deliver clears the mark)
	// or when it fires (which it cannot), so the retirement scan skips it.
	stale bool
}

// fu is one pipelined function unit. In-flight operations sit on a time
// wheel bucketed by completion cycle; the initiation queue is a FIFO.
type fu struct {
	queue    fifo      // operation packets awaiting initiation
	wheel    [][]fuJob // wheel[doneAt % wheelSlots], initiation order within a bucket
	inflight int
}

// fuJob is one initiated operation. It keeps its operation packet, whose
// destination list the completion reads, until the result packets are
// sent; the packet is recycled then.
type fuJob struct {
	result value.Value
	pkt    *packet
}

// machine is the full simulator state.
type machine struct {
	cfg   Config
	t     *graph.Table
	cells []cell
	// arcHas and arcVal are the operand slots: one token per arc, held
	// at the consumer's port the arc binds.
	arcHas []bool
	arcVal []value.Value
	// streams is the run's source binding, source*lanes + lane (see
	// graph.Table.BindStreams); this machine runs lane.
	streams     [][]value.Value
	lane, lanes int
	// sinkOuts and sinkCycs hold each sink's received stream and arrival
	// cycles, indexed by sink number; finish builds the label-keyed Result
	// maps from them.
	sinkOuts [][]value.Value
	sinkCycs [][]int
	// residents[e] lists cell ids hosted by endpoint e (PEs and AMs), in
	// ascending order; fresh[e] counts those not marked stale, so the
	// retirement scan passes over an endpoint whose count is 0.
	residents [][]int
	fresh     []int
	rrNext    []int
	net       network   // distribution network (results, acks); all traffic when not split
	opNet     network   // routing network for operation packets (nil unless SplitNetworks)
	localNext []*packet // same-endpoint packets delivered next cycle
	localBuf  []*packet // spare buffer swapped with localNext each cycle
	fus       []fu
	fuSlots   int // FU wheel size: max latency + 1
	res       *Result
	pktCount  [3]int // routed traffic by packetKind
	inflight  int    // local packets in flight
	fuSeq     int
	outCap    int // preallocation hint for sink streams
	tr        trace.Tracer
	prog      *trace.Progress
	laneCtr   *trace.LaneCounters // this lane's live counters in a batched run
	fired     []bool              // per-cell fired-this-cycle scratch (tracing only)
	canceled  bool                // Config.Ctx fired mid-run (set by drive)
	arena     *runArena           // pooled run state the cells are carved from

	// plan is planCell's result, reused across calls.
	plan cellPlan

	pktFree []*packet // recycled packets
}

// endpoint layout: [0, PEs) compute PEs, [PEs, PEs+FUs) function units,
// [PEs+FUs, PEs+FUs+AMs) array memories.
func (m *machine) fuEndpoint(i int) int { return m.cfg.PEs + i }
func (m *machine) amEndpoint(i int) int { return m.cfg.PEs + m.cfg.FUs + i }
func (m *machine) numEndpoints() int    { return m.cfg.PEs + m.cfg.FUs + m.cfg.AMs }
func (m *machine) isAM(e int) bool      { return e >= m.cfg.PEs+m.cfg.FUs }

// newPacket returns a zeroed packet, recycled from the free list when
// possible. A recycled packet keeps its operation payload's backing arrays
// (emptied), so shipping an operation reuses them instead of allocating.
func (m *machine) newPacket() *packet {
	if n := len(m.pktFree); n > 0 {
		p := m.pktFree[n-1]
		m.pktFree = m.pktFree[:n-1]
		vals, targets := p.op.vals[:0], p.op.targets[:0]
		*p = packet{}
		p.op.vals, p.op.targets = vals, targets
		return p
	}
	return &packet{}
}

func (m *machine) freePacket(p *packet) { m.pktFree = append(m.pktFree, p) }

// stream returns source k's stream in this machine's lane.
func (m *machine) stream(k int) []value.Value { return m.streams[k*m.lanes+m.lane] }

// Run simulates the graph on the configured machine: Prepare then
// Prepared.Run. When MaxCycles is exhausted before quiescence the partial
// Result (with Stalled diagnostics populated) is returned together with
// the error.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

// drive steps the machine until quiescence, cancellation, or the cycle
// bound.
func (m *machine) drive() (*Result, error) {
	cfg := m.cfg
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	cycle := 0
	for ; cycle < cfg.MaxCycles; cycle++ {
		if done != nil && cycle&(exec.CancelCadence-1) == 0 {
			select {
			case <-done:
				m.canceled = true
			default:
			}
			if m.canceled {
				break
			}
		}
		if m.prog != nil {
			m.prog.Cycle.Store(int64(cycle))
		}
		if m.laneCtr != nil {
			m.laneCtr.Cycles.Store(int64(cycle))
		}
		if !m.step(cycle) {
			break
		}
	}
	if m.laneCtr != nil {
		m.laneCtr.Cycles.Store(int64(cycle))
		m.laneCtr.Done.Store(1)
	}
	return m.finish(cycle)
}

// newMachine builds and places one machine instance of lane l of a
// b-lane run over the table, carving its cells and operand slots out of
// the pooled arena; streams is the run's source binding (see
// graph.Table.BindStreams).
func newMachine(t *graph.Table, cfg Config, streams [][]value.Value, l, b int, arena *runArena) (*machine, error) {
	m := &machine{
		cfg:       cfg,
		arena:     arena,
		t:         t,
		streams:   streams,
		lane:      l,
		lanes:     b,
		sinkOuts:  make([][]value.Value, len(t.Sinks)),
		sinkCycs:  make([][]int, len(t.Sinks)),
		tr:        cfg.Tracer,
		prog:      cfg.Progress,
		residents: make([][]int, cfg.PEs+cfg.FUs+cfg.AMs),
		fresh:     make([]int, cfg.PEs+cfg.FUs+cfg.AMs),
		rrNext:    make([]int, cfg.PEs+cfg.FUs+cfg.AMs),
		res: &Result{
			tab:      t,
			Outputs:  make(map[string][]value.Value, len(t.Sinks)),
			Arrivals: make(map[string][]int, len(t.Sinks)),
			Packets:  map[string]int{},
			PEBusy:   make([]int, cfg.PEs),
			FUBusy:   make([]int, cfg.FUs),
		},
	}
	mkNet := func() network {
		if cfg.Network == Butterfly {
			return newButterfly(m.numEndpoints())
		}
		return newCrossbar(m.numEndpoints(), cfg.NetDelay)
	}
	m.net = mkNet()
	if cfg.SplitNetworks {
		m.opNet = mkNet()
	}
	m.fuSlots = max(cfg.MulLatency, cfg.AddLatency) + 1
	m.fus = make([]fu, cfg.FUs)
	for i := range m.fus {
		m.fus[i].wheel = make([][]fuJob, m.fuSlots)
	}
	if err := m.place(); err != nil {
		return nil, err
	}
	if m.tr != nil {
		m.fired = make([]bool, len(t.Cells))
		m.tr.Start(m.meta())
	}
	for k := range t.Sources {
		m.outCap = max(m.outCap, len(m.stream(k)))
	}
	for _, in := range t.Inits {
		m.arcHas[in.Arc] = true
		m.arcVal[in.Arc] = in.Val
	}
	return m, nil
}

// finish assembles the Result once the cycle loop has halted at endCycle.
func (m *machine) finish(endCycle int) (*Result, error) {
	m.res.Cycles = endCycle
	m.res.Clean, m.res.Stalled = m.drainState()
	for k, label := range m.t.Sinks {
		m.res.Outputs[label] = m.sinkOuts[k]
		m.res.Arrivals[label] = m.sinkCycs[k]
	}
	for k := pktResult; k <= pktOp; k++ {
		if m.pktCount[k] > 0 {
			m.res.Packets[k.String()] = m.pktCount[k]
		}
	}
	if m.canceled {
		m.res.Canceled = true
		m.res.Clean = false
		m.res.Stalled = append([]string{fmt.Sprintf("canceled: run stopped by context at cycle %d before quiescence", endCycle)},
			m.res.Stalled...)
		return m.res, fmt.Errorf("machine: run canceled at cycle %d: %w", endCycle, context.Cause(m.cfg.Ctx))
	}
	if endCycle >= m.cfg.MaxCycles {
		return m.res, fmt.Errorf("machine: no quiescence after %d cycles (livelock or MaxCycles too small)", m.cfg.MaxCycles)
	}
	return m.res, nil
}

// meta describes the placed machine for the observability layer.
func (m *machine) meta() trace.Meta {
	meta := trace.Meta{
		Cells:    m.t.CellNames(),
		Units:    make([]string, m.numEndpoints()),
		CellUnit: make([]int, len(m.cells)),
	}
	for id := range m.cells {
		meta.CellUnit[id] = m.cells[id].endpoint
	}
	for e := 0; e < m.numEndpoints(); e++ {
		switch {
		case e < m.cfg.PEs:
			meta.Units[e] = fmt.Sprintf("PE%d", e)
		case e < m.cfg.PEs+m.cfg.FUs:
			meta.Units[e] = fmt.Sprintf("FU%d", e-m.cfg.PEs)
		default:
			meta.Units[e] = fmt.Sprintf("AM%d", e-m.cfg.PEs-m.cfg.FUs)
		}
	}
	return meta
}

// place assigns cells to endpoints: sources and sinks to AMs, everything
// else per the configured strategy.
func (m *machine) place() error {
	// Cells and operand slots are the arena's, which the Prepared sized
	// for this table; arcVal is written before it is read.
	ar := m.arena
	m.cells, m.arcHas, m.arcVal = ar.cells, ar.arcHas, ar.arcVal
	clear(m.cells)
	clear(m.arcHas)
	computeIDs := make([]int, 0, len(m.t.Cells)-len(m.t.Sources)-len(m.t.Sinks))
	amNext := 0
	for id := range m.t.Cells {
		if op := m.t.Cells[id].Op; op == graph.OpSource || op == graph.OpSink {
			m.cells[id].endpoint = m.amEndpoint(amNext % m.cfg.AMs)
			amNext++
			continue
		}
		computeIDs = append(computeIDs, id)
	}
	var peOf func(i, id int) int
	switch m.cfg.Assign {
	case Random:
		rng := rand.New(rand.NewSource(m.cfg.Seed + 1))
		peOf = func(i, id int) int { return rng.Intn(m.cfg.PEs) }
	case ByStage:
		per := (len(computeIDs) + m.cfg.PEs - 1) / m.cfg.PEs
		if per == 0 {
			per = 1
		}
		peOf = func(i, id int) int { return min(i/per, m.cfg.PEs-1) }
	case HotSpot:
		peOf = func(i, id int) int { return 0 }
	case Placed:
		// The map indexes the table's cells — the FIFO-expanded graph's
		// node IDs — so a map planned against a pre-expansion graph is a
		// length mismatch, caught here.
		if got, want := len(m.cfg.Placement), len(m.t.Cells); got != want {
			return fmt.Errorf("machine: placement maps %d cells, graph has %d (plan against the FIFO-expanded graph)", got, want)
		}
		for _, id := range computeIDs {
			if pe := m.cfg.Placement[id]; pe < 0 || pe >= m.cfg.PEs {
				return fmt.Errorf("machine: placement sends cell %d to PE %d, want [0,%d)", id, pe, m.cfg.PEs)
			}
		}
		peOf = func(i, id int) int { return m.cfg.Placement[id] }
	default:
		peOf = func(i, id int) int { return i % m.cfg.PEs }
	}
	for i, id := range computeIDs {
		m.cells[id].endpoint = peOf(i, id)
	}
	// Every cell starts fresh. The resident lists are carved, each at its
	// exact length, from one array of all cell ids.
	for id := range m.cells {
		m.fresh[m.cells[id].endpoint]++
	}
	ids := make([]int, len(m.cells))
	off := 0
	for e, n := range m.fresh {
		m.residents[e] = ids[off : off : off+n]
		off += n
	}
	for id := range m.cells {
		e := m.cells[id].endpoint
		m.residents[e] = append(m.residents[e], id)
	}
	return nil
}

// step advances one machine cycle; it reports whether any activity
// remains.
func (m *machine) step(now int) bool {
	active := false

	// 1. Network delivery.
	for _, p := range m.net.step() {
		m.deliver(p, now)
		active = true
	}
	if m.opNet != nil {
		for _, p := range m.opNet.step() {
			m.deliver(p, now)
			active = true
		}
	}
	// local same-endpoint deliveries scheduled last cycle
	locals := m.localNext
	m.localNext = m.localBuf[:0]
	for _, p := range locals {
		m.deliver(p, now)
		m.inflight--
		active = true
	}
	m.localBuf = locals[:0]

	// 2. Function units: complete and initiate. Completions due this cycle
	// sit in the wheel bucket for now; within a bucket they are in
	// initiation order (an op's latency never exceeds the wheel span, so
	// buckets never mix completion cycles).
	slot := now % m.fuSlots
	for fi := range m.fus {
		f := &m.fus[fi]
		done := f.wheel[slot]
		for ji := range done {
			job := &done[ji]
			if m.tr != nil {
				m.tr.Emit(trace.Event{
					Cycle: int64(now), Kind: trace.KindFUDone,
					Cell: int32(job.pkt.op.srcCell), Port: -1, Unit: int32(m.fuEndpoint(fi)), Src: -1, Dst: -1,
				})
			}
			for _, tgt := range job.pkt.op.targets {
				m.sendResult(m.fuEndpoint(fi), tgt, job.result, now)
			}
			m.freePacket(job.pkt)
		}
		f.inflight -= len(done)
		f.wheel[slot] = done[:0]
		if f.inflight > 0 {
			active = true
		}
		if f.queue.len() > 0 {
			p := f.queue.pop()
			lat := m.latencyOf(graph.Op(p.op.opcode))
			dslot := (now + lat) % m.fuSlots
			f.wheel[dslot] = append(f.wheel[dslot], fuJob{
				result: exec.ApplyOp(graph.Op(p.op.opcode), p.op.vals),
				pkt:    p,
			})
			f.inflight++
			m.res.FUBusy[fi]++
			if m.tr != nil {
				m.tr.Emit(trace.Event{
					Cycle: int64(now), Kind: trace.KindFUStart,
					Cell: int32(p.op.srcCell), Port: -1, Unit: int32(m.fuEndpoint(fi)), Src: -1, Dst: -1,
					Aux: int64(lat),
				})
			}
			active = true
		}
	}

	// 3. PEs and AMs each retire one enabled instruction: the first, in
	// round-robin order from rrNext, whose plan succeeds. Stale cells would
	// fail to plan, so skipping them, and every endpoint whose residents
	// are all stale, retires the same cell.
	if m.tr != nil {
		clear(m.fired)
	}
	for e := 0; e < m.numEndpoints(); e++ {
		if m.fresh[e] == 0 {
			continue
		}
		ids := m.residents[e]
		i := m.rrNext[e]
		for range ids {
			id := ids[i]
			if i++; i == len(ids) {
				i = 0
			}
			if !m.cells[id].stale && m.fire(int32(id), now) {
				m.rrNext[e] = i
				if e < m.cfg.PEs {
					m.res.PEBusy[e]++
				}
				active = true
				break
			}
		}
	}
	if m.tr != nil {
		m.emitStalls(now)
	}

	if m.net.pending() > 0 || m.inflight > 0 {
		active = true
	}
	if m.opNet != nil && m.opNet.pending() > 0 {
		active = true
	}
	return active
}

// emitStalls classifies every cell that did not retire this cycle and
// emits one stall event per waiting cell (tracing only; planCell is
// side-effect free, so this pass cannot perturb the run). A cell whose plan
// succeeds but did not fire lost its endpoint's one-instruction-per-cycle
// slot — PE instruction-bandwidth contention.
func (m *machine) emitStalls(now int) {
	for id := range m.cells {
		if m.fired[id] {
			continue
		}
		why := m.planCell(int32(id))
		switch why {
		case trace.ReasonNone:
			why = trace.ReasonUnitBusy
		case trace.ReasonDone:
			continue
		}
		m.tr.Emit(trace.Event{
			Cycle: int64(now), Kind: trace.KindStall,
			Cell: int32(id), Port: -1, Unit: int32(m.cells[id].endpoint), Src: -1, Dst: -1, Reason: why,
		})
	}
}

func (m *machine) latencyOf(op graph.Op) int {
	switch op {
	case graph.OpMul, graph.OpDiv:
		return m.cfg.MulLatency
	default:
		return m.cfg.AddLatency
	}
}

// emit routes a packet, short-circuiting same-endpoint traffic with a
// one-cycle local delay. now is the emission cycle, stamped on the packet
// so delivery can report the transit (and queueing) time.
func (m *machine) emit(p *packet, now int) {
	p.sentAt = now
	m.pktCount[p.kind]++
	m.res.TotalPackets++
	if m.isAM(p.src) || m.isAM(p.dst) {
		m.res.AMPackets++
	}
	if m.tr != nil {
		m.tr.Emit(trace.Event{
			Cycle: int64(now), Kind: trace.KindSend,
			Cell: int32(p.trCell()), Port: -1, Unit: -1,
			Src: int32(p.src), Dst: int32(p.dst), Packet: p.kind.traceKind(),
		})
	}
	if p.src == p.dst {
		m.localNext = append(m.localNext, p)
		m.inflight++
		return
	}
	if m.opNet != nil && p.kind == pktOp {
		m.opNet.send(p)
		return
	}
	m.net.send(p)
}

// deliver applies an arrived packet to its destination. Result and ack
// packets die here and are recycled; operation packets queue at their
// function unit and are recycled at initiation.
func (m *machine) deliver(p *packet, now int) {
	if m.tr != nil {
		m.tr.Emit(trace.Event{
			Cycle: int64(now), Kind: trace.KindDeliver,
			Cell: int32(p.trCell()), Port: int32(p.port), Unit: -1,
			Src: int32(p.src), Dst: int32(p.dst), Packet: p.kind.traceKind(),
			Aux: int64(now - p.sentAt),
		})
	}
	switch p.kind {
	case pktAck:
		c := &m.cells[p.cell]
		c.pendingAcks--
		m.wake(c)
		m.freePacket(p)
	case pktResult:
		if m.arcHas[p.arc] {
			panic(fmt.Sprintf("machine: operand slot collision at %s port %d", m.t.CellName(p.cell), p.port))
		}
		m.arcVal[p.arc] = p.val
		m.arcHas[p.arc] = true
		m.wake(&m.cells[p.cell])
		m.freePacket(p)
	case pktOp:
		m.fus[p.dst-m.cfg.PEs].queue.push(p)
	}
}

// wake clears a cell's stale mark, counting it fresh again on its
// endpoint.
func (m *machine) wake(c *cell) {
	if c.stale {
		c.stale = false
		m.fresh[c.endpoint]++
	}
}

// operand returns the value at port p of cell c (a literal or the token
// on its arc) and whether it is present.
func (m *machine) operand(c *graph.Cell, p int) (value.Value, bool) {
	port := m.t.Port(c, p)
	if port < 0 {
		return m.t.Lits[^port], true
	}
	if !m.arcHas[port] {
		return value.Value{}, false
	}
	return m.arcVal[port], true
}

// cellPlan is a cell's planned retirement effect, filled in by planCell and
// applied by fire. Arithmetic cells (arith) ship an operation packet
// carrying vals instead of producing out locally. planCell refills the
// machine's one cellPlan on every call, so the consume, vals and targets
// buffers are reused: a plan is valid until the next planCell call, and
// fire copies what must outlive it.
type cellPlan struct {
	consume  []int32 // arcs whose tokens are consumed, in port order
	out      value.Value
	produced bool
	advance  bool
	sink     bool
	arith    bool
	vals     []value.Value
	targets  []target
}

// consumePort adds port p's arc, if it has one, to the plan's consume list.
func (m *machine) consumePort(c *graph.Cell, p int) {
	if port := m.t.Port(c, p); port >= 0 {
		m.plan.consume = append(m.plan.consume, port)
	}
}

// planCell decides whether cell id can retire now and, if so, fills m.plan
// with its effects. The returned reason is trace.ReasonNone when the cell
// is enabled and otherwise classifies the stall; planCell has no side
// effects beyond m.plan either way.
func (m *machine) planCell(id int32) trace.Reason {
	c := &m.cells[id]
	if c.pendingAcks > 0 {
		return trace.ReasonAckWait
	}
	t := m.t
	tc := &t.Cells[id]
	nports := int(tc.P1 - tc.P0)
	pl := &m.plan
	pl.consume = pl.consume[:0]
	pl.targets = pl.targets[:0]
	pl.produced, pl.advance, pl.sink, pl.arith = false, false, false, false

	switch tc.Op {
	case graph.OpSource:
		stream := m.stream(int(tc.Aux))
		if c.srcPos >= len(stream) {
			return trace.ReasonDone
		}
		pl.out = stream[c.srcPos]
		pl.produced = true
		pl.advance = true
	case graph.OpCtlGen:
		pat := t.Patterns[tc.Aux]
		total := pat.Len()
		if total >= 0 && c.srcPos >= total {
			return trace.ReasonDone
		}
		pl.out = value.B(pat.At(c.srcPos))
		pl.produced = true
		pl.advance = true
	case graph.OpSink:
		v, ok := m.operand(tc, 0)
		if !ok {
			return trace.ReasonOperandWait
		}
		pl.out = v
		pl.sink = true
		m.consumePort(tc, 0)
	case graph.OpMerge:
		ctl, ok := m.operand(tc, 0)
		if !ok {
			return trace.ReasonOperandWait
		}
		sel := 2
		if ctl.AsBool() {
			sel = 1
		}
		v, ok := m.operand(tc, sel)
		if !ok {
			return trace.ReasonOperandWait
		}
		for p := 3; p < nports; p++ {
			if _, ok := m.operand(tc, p); !ok {
				return trace.ReasonOperandWait
			}
		}
		pl.out = v
		pl.produced = true
		m.consumePort(tc, 0)
		m.consumePort(tc, sel)
		for p := 3; p < nports; p++ {
			m.consumePort(tc, p)
		}
	case graph.OpTGate, graph.OpFGate:
		ctl, okc := m.operand(tc, 0)
		data, okd := m.operand(tc, 1)
		if !okc || !okd {
			return trace.ReasonOperandWait
		}
		for p := 2; p < nports; p++ {
			if _, ok := m.operand(tc, p); !ok {
				return trace.ReasonOperandWait
			}
		}
		pass := ctl.AsBool()
		if tc.Op == graph.OpFGate {
			pass = !pass
		}
		pl.out = data
		pl.produced = pass
		pl.consume = append(pl.consume, t.Cins[tc.C0:tc.C1]...)
	default:
		pl.vals = pl.vals[:0]
		for p := 0; p < nports; p++ {
			v, ok := m.operand(tc, p)
			if !ok {
				return trace.ReasonOperandWait
			}
			pl.vals = append(pl.vals, v)
		}
		pl.consume = append(pl.consume, t.Cins[tc.C0:tc.C1]...)
		if tc.Op.IsArith() {
			pl.arith = true
		} else {
			pl.out = exec.ApplyOp(tc.Op, pl.vals)
			pl.produced = true
		}
	}

	// Destination list, in arc order (gates evaluated against held
	// operands). Arithmetic cells always ship their destinations with the
	// operation packet.
	if pl.produced || pl.arith {
		for _, d := range t.Outs[tc.O0:tc.O1] {
			write := true
			if d.Gate != graph.NoGate {
				gv, ok := m.operand(tc, int(d.Gate))
				if !ok {
					return trace.ReasonOperandWait
				}
				write = gv.AsBool()
			}
			if write {
				pl.targets = append(pl.targets, target{endpoint: m.cells[t.Arcs[d.Arc].To].endpoint, arc: d.Arc})
			}
		}
	}
	return trace.ReasonNone
}

// fire attempts to retire cell id, which is not stale; it reports whether
// it fired, and marks the cell stale when it could not. Arithmetic cells ship an operation
// packet to a function unit (which sends the result packets); either way
// the cell owes acknowledgments for every destination targeted.
func (m *machine) fire(id int32, now int) bool {
	c := &m.cells[id]
	if m.planCell(id) != trace.ReasonNone {
		c.stale = true
		m.fresh[c.endpoint]--
		return false
	}
	pl := &m.plan
	if m.tr != nil {
		m.fired[id] = true
		m.tr.Emit(trace.Event{
			Cycle: int64(now), Kind: trace.KindFiring,
			Cell: id, Port: -1, Unit: int32(c.endpoint), Src: -1, Dst: -1,
		})
	}
	m.commitConsume(c, pl.consume, now)
	if pl.advance {
		c.srcPos++
	}
	if pl.sink {
		k := m.t.Cells[id].Aux
		m.sinkOuts[k] = appendPrealloc(m.sinkOuts[k], pl.out, m.outCap)
		m.sinkCycs[k] = appendPrealloc(m.sinkCycs[k], now, m.outCap)
		if m.prog != nil {
			m.prog.Arrivals.Add(1)
		}
		if m.laneCtr != nil {
			m.laneCtr.Arrivals.Add(1)
		}
	}
	c.pendingAcks = len(pl.targets)
	if pl.arith {
		fi := m.fuSeq % m.cfg.FUs
		m.fuSeq++
		p := m.newPacket()
		p.kind, p.src, p.dst = pktOp, c.endpoint, m.fuEndpoint(fi)
		p.op.opcode = uint8(m.t.Cells[id].Op)
		p.op.vals = append(p.op.vals, pl.vals...)
		p.op.targets = append(p.op.targets, pl.targets...)
		p.op.srcCell = int(id)
		m.emit(p, now)
		return true
	}
	for _, tgt := range pl.targets {
		m.sendResult(c.endpoint, tgt, pl.out, now)
	}
	return true
}

// sendResult sends v from endpoint src along one destination arc.
func (m *machine) sendResult(src int, tgt target, v value.Value, now int) {
	e := m.t.Arcs[tgt.arc]
	p := m.newPacket()
	p.kind, p.src, p.dst = pktResult, src, tgt.endpoint
	p.cell, p.port, p.arc, p.val = int(e.To), int(e.Port), tgt.arc, v
	m.emit(p, now)
}

// commitConsume empties the consumed arcs' operand slots and sends
// acknowledge packets to their producers.
func (m *machine) commitConsume(c *cell, arcs []int32, now int) {
	for _, aid := range arcs {
		m.arcHas[aid] = false
		from := m.t.Arcs[aid].From
		ack := m.newPacket()
		ack.kind, ack.src, ack.dst = pktAck, c.endpoint, m.cells[from].endpoint
		ack.cell = int(from)
		m.emit(ack, now)
	}
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

// drainState mirrors exec's cleanliness report. Names come from the
// expanded graph, which only a run that left state behind builds.
func (m *machine) drainState() (bool, []string) {
	t := m.t
	var stalled []string
	for id := range t.Cells {
		tc, c := &t.Cells[id], &m.cells[id]
		switch tc.Op {
		case graph.OpSource:
			if stream := m.stream(int(tc.Aux)); c.srcPos < len(stream) {
				stalled = append(stalled, fmt.Sprintf("%s: %d stream values unsent", t.CellName(id), len(stream)-c.srcPos))
			}
		case graph.OpCtlGen:
			if total := t.Patterns[tc.Aux].Len(); total >= 0 && c.srcPos < total {
				stalled = append(stalled, fmt.Sprintf("%s: %d control values unsent", t.CellName(id), total-c.srcPos))
			}
		}
		for p, port := range t.Ports[tc.P0:tc.P1] {
			if port >= 0 && m.arcHas[port] {
				stalled = append(stalled, fmt.Sprintf("token %s stranded at %s port %d", m.arcVal[port], t.CellName(id), p))
			}
		}
	}
	return len(stalled) == 0, stalled
}

// Describe summarizes a machine result.
func Describe(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d clean=%v packets=%d am-fraction=%.3f pe-util=%.3f\n",
		r.Cycles, r.Clean, r.TotalPackets, r.AMFraction(), r.Utilization())
	kinds := make([]string, 0, len(r.Packets))
	for k := range r.Packets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %s packets: %d\n", k, r.Packets[k])
	}
	labels := make([]string, 0, len(r.Outputs))
	for l := range r.Outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "  sink %q: %d values, II=%.3f\n", l, len(r.Outputs[l]), r.II(l))
	}
	return b.String()
}
