// Sharded parallel engine for the machine simulator.
//
// The machine's cycle splits into phases whose mutations touch disjoint
// state, which is what makes sharding deterministic:
//
//   - Prologue (serial, worker 0 at the end of the previous cycle's merge):
//     step the routing network(s) and swap the local-delivery buffer,
//     producing the due list — every packet delivering this cycle, in the
//     sequential engine's delivery order. In trace mode the KindDeliver
//     events are emitted here, serially, before any worker frees a packet.
//   - Delivery + function units (parallel): each worker applies the due
//     packets addressed to its own endpoints (operand slots, ack counters,
//     FU queues) and runs its own FUs (completions collected into a
//     buffer, one initiation with ApplyOp). Every mutation is keyed by the
//     destination endpoint, which has exactly one owner.
//   - Retirement (parallel, after a barrier): each worker retires at most
//     one enabled cell per owned endpoint, exactly the sequential
//     round-robin. A firing's local effects (operand clears, srcPos,
//     pendingAcks, sink append) touch only the firing cell; its packet
//     emissions are buffered, not sent. planCell reads only the planned
//     cell's state plus immutable placement, so concurrent planning is
//     safe.
//   - Merge (serial, worker 0, after a barrier): replay the buffered FU
//     and retirement emissions through the real m.emit in the sequential
//     engine's exact order — FUs ascending (completions then initiation),
//     then endpoints ascending (firing event, acks, operation/result
//     sends), then stall classifications by cell id. Network sequence
//     stamps, FU round-robin assignment, packet counters, and the trace
//     stream therefore come out byte-identical to the sequential engine
//     for any worker count.
//
// Cross-phase visibility is provided by the barrier's atomics; within a
// phase no two workers write the same location, which `go test -race`
// checks end to end.
package machine

import (
	"fmt"
	"sync"
	"time"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/partition"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// parMachine is the shared state of one sharded run.
type parMachine struct {
	m       *machine
	owner   []int // endpoint -> owning worker
	workers []*machWorker
	barrier *partition.Barrier
	traced  bool

	due      []*packet // packets delivering this cycle, sequential order
	cycle    int
	endCycle int
	stop     bool
	maxed    bool

	stallWhy []trace.Reason  // per-cell stall classification (trace mode)
	sinkVals [][]value.Value // per-sink-cell output stream
	sinkArrs [][]exec.Arrival
}

// fuDone is one completed FU job awaiting its result sends at merge.
type fuDone struct {
	srcCell int
	result  value.Value
	targets []target
}

// fuAct records one owned FU's activity this cycle: which completions it
// retired (a range in the worker's dones arena) and the initiation, if any.
type fuAct struct {
	fi        int
	d0, d1    int
	initiated bool
	initCell  int
	initLat   int
}

// firePend is one buffered cell retirement: the local effects were applied
// in the parallel phase, the emissions are replayed at merge.
type firePend struct {
	endpoint int
	cellID   int
	opcode   uint8
	arith    bool
	out      value.Value
	a0, a1   int // ackArena range: producer cell ids owed an acknowledge
	v0, v1   int // valArena range: arithmetic operand values
	t0, t1   int // targetArena range: destinations
}

type machWorker struct {
	id        int
	pm        *parMachine
	m         *machine
	endpoints []int // owned endpoints, ascending
	fuIdx     []int // owned FU indices, ascending
	plan      cellPlan
	active    bool

	// per-cycle emission buffers, replayed then reset at merge
	fires       []firePend
	ackArena    []int
	valArena    []value.Value
	targetArena []target
	dones       []fuDone
	fuActs      []fuAct
	freed       []*packet

	stat partition.ShardStat
	live *trace.ShardCounters
}

// runSharded drives the machine with nw worker goroutines; the machine is
// already placed and initialized by Run.
func (m *machine) runSharded(nw int) (*Result, error) {
	pm := &parMachine{
		m:        m,
		owner:    make([]int, m.numEndpoints()),
		barrier:  partition.NewBarrier(nw),
		traced:   m.tr != nil,
		sinkVals: make([][]value.Value, m.g.NumNodes()),
		sinkArrs: make([][]exec.Arrival, m.g.NumNodes()),
	}
	if pm.traced {
		pm.stallWhy = make([]trace.Reason, m.g.NumNodes())
	}
	var lives []*trace.ShardCounters
	if m.prog != nil {
		lives = m.prog.InitShards(nw)
	}
	ne := m.numEndpoints()
	pm.workers = make([]*machWorker, nw)
	for w := 0; w < nw; w++ {
		lo, hi := w*ne/nw, (w+1)*ne/nw
		mw := &machWorker{id: w, pm: pm, m: m}
		for e := lo; e < hi; e++ {
			pm.owner[e] = w
			mw.endpoints = append(mw.endpoints, e)
			if e >= m.cfg.PEs && e < m.cfg.PEs+m.cfg.FUs {
				mw.fuIdx = append(mw.fuIdx, e-m.cfg.PEs)
			}
			mw.stat.Cells += len(m.residents[e])
		}
		if lives != nil {
			mw.live = lives[w]
		}
		pm.workers[w] = mw
	}

	pm.prologue(0)
	var wg sync.WaitGroup
	wg.Add(nw)
	for _, w := range pm.workers {
		go func(w *machWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()

	for _, n := range m.g.Nodes() {
		if n.Op == graph.OpSink && pm.sinkVals[n.ID] != nil {
			m.res.Outputs[n.Label] = pm.sinkVals[n.ID]
			m.res.Arrivals[n.Label] = pm.sinkArrs[n.ID]
		}
	}
	m.res.Shards = make([]partition.ShardStat, nw)
	for i, w := range pm.workers {
		m.res.Shards[i] = w.stat
	}
	if pm.maxed {
		m.res.ShardDiag = pm.diagnose()
	}
	return m.finish(pm.endCycle)
}

// prologue advances the network(s) to cycle now and collects the due list
// in sequential delivery order: distribution network, operation network,
// then local same-endpoint deliveries scheduled last cycle.
func (pm *parMachine) prologue(now int) {
	m := pm.m
	pm.due = pm.due[:0]
	pm.due = append(pm.due, m.net.step()...)
	if m.opNet != nil {
		pm.due = append(pm.due, m.opNet.step()...)
	}
	locals := m.localNext
	m.localNext = m.localBuf[:0]
	for _, p := range locals {
		pm.due = append(pm.due, p)
		m.inflight--
	}
	m.localBuf = locals[:0]
	if pm.traced {
		for _, p := range pm.due {
			m.tr.Emit(trace.Event{
				Cycle: int64(now), Kind: trace.KindDeliver,
				Cell: int32(p.trCell()), Port: int32(p.port), Unit: -1,
				Src: int32(p.src), Dst: int32(p.dst), Packet: p.kind.traceKind(),
				Aux: int64(now - p.sentAt),
			})
		}
	}
}

func (w *machWorker) wait() {
	ns := w.pm.barrier.Wait()
	w.stat.BarrierWait.Observe(ns)
	if w.live != nil && ns > 0 {
		w.live.BarrierWaitNs.Add(ns)
	}
}

func (w *machWorker) run() {
	pm := w.pm
	m := w.m
	wallStart := time.Now()
	defer func() { w.stat.WallNs = time.Since(wallStart).Nanoseconds() }()
	for {
		if pm.stop {
			return
		}
		if w.id == 0 && m.prog != nil {
			m.prog.Cycle.Store(int64(pm.cycle))
		}
		w.active = false
		w.fires = w.fires[:0]
		w.ackArena = w.ackArena[:0]
		w.valArena = w.valArena[:0]
		w.targetArena = w.targetArena[:0]
		w.dones = w.dones[:0]
		w.fuActs = w.fuActs[:0]

		w.deliverOwned()
		w.runFUs(pm.cycle)
		w.wait()
		w.retire(pm.cycle)
		w.wait()
		if w.id == 0 {
			pm.serial()
		}
		w.wait()

		if w.live != nil {
			w.live.Cycles.Add(1)
			w.live.Firings.Store(w.stat.Firings)
			w.live.RingMsgs.Store(w.stat.RingSends)
			w.live.RingPeak.Store(w.stat.RingPeak)
		}
	}
}

// deliverOwned applies the due packets addressed to this worker's
// endpoints, exactly the sequential deliver minus tracing (the events were
// already emitted by the prologue).
func (w *machWorker) deliverOwned() {
	m := w.m
	var got int64
	for _, p := range w.pm.due {
		if w.pm.owner[p.dst] != w.id {
			continue
		}
		got++
		switch p.kind {
		case pktAck:
			m.cells[p.cell].pendingAcks--
			w.freed = append(w.freed, p)
		case pktResult:
			c := &m.cells[p.cell]
			if c.inHas[p.port] {
				panic(fmt.Sprintf("machine: operand slot collision at %s port %d", c.node.Name(), p.port))
			}
			c.inTok[p.port] = p.val
			c.inHas[p.port] = true
			w.freed = append(w.freed, p)
		case pktOp:
			m.fus[p.dst-m.cfg.PEs].queue.push(p)
		}
	}
	if got > 0 {
		w.active = true
	}
	w.stat.RingRecvs += got
	if got > w.stat.RingPeak {
		w.stat.RingPeak = got
	}
}

// runFUs completes and initiates this worker's function units. Result
// sends are deferred to the merge; state mutations (wheel, queue, inflight,
// busy counters) are all owned by this worker. A completed job's operation
// packet is recycled only after the merge has read its destinations.
func (w *machWorker) runFUs(now int) {
	m := w.m
	slot := now % m.fuSlots
	for _, fi := range w.fuIdx {
		f := &m.fus[fi]
		done := f.wheel[slot]
		act := fuAct{fi: fi, d0: len(w.dones)}
		for ji := range done {
			job := &done[ji]
			w.dones = append(w.dones, fuDone{srcCell: job.pkt.op.srcCell, result: job.result, targets: job.pkt.op.targets})
			w.stat.RingSends += int64(len(job.pkt.op.targets))
			w.freed = append(w.freed, job.pkt)
		}
		act.d1 = len(w.dones)
		f.inflight -= len(done)
		f.wheel[slot] = done[:0]
		if f.inflight > 0 {
			w.active = true
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
			act.initiated = true
			act.initCell = p.op.srcCell
			act.initLat = lat
			w.active = true
		}
		if act.d1 > act.d0 || act.initiated {
			w.fuActs = append(w.fuActs, act)
		}
	}
}

// retire runs the sequential phase-3 round-robin over this worker's
// endpoints, buffering emissions for the merge.
func (w *machWorker) retire(now int) {
	m := w.m
	if m.fired != nil {
		for _, e := range w.endpoints {
			for _, id := range m.residents[e] {
				m.fired[id] = false
			}
		}
	}
	for _, e := range w.endpoints {
		ids := m.residents[e]
		if len(ids) == 0 {
			continue
		}
		start := m.rrNext[e]
		for k := 0; k < len(ids); k++ {
			id := ids[(start+k)%len(ids)]
			if w.fireBuffered(&m.cells[id], now) {
				m.rrNext[e] = (start + k + 1) % len(ids)
				if e < m.cfg.PEs {
					m.res.PEBusy[e]++
				}
				w.active = true
				w.stat.Firings++
				break
			}
		}
	}
	if w.pm.traced {
		w.classifyStalls()
	}
}

// fireBuffered is the sequential fire with emissions captured instead of
// sent: local cell effects happen here, packets and trace events at merge.
func (w *machWorker) fireBuffered(c *cell, now int) bool {
	m := w.m
	pl := &w.plan
	if m.planCell(c, pl) != trace.ReasonNone {
		return false
	}
	n := c.node
	if m.fired != nil {
		m.fired[n.ID] = true
	}
	fp := firePend{
		endpoint: c.endpoint, cellID: int(n.ID), opcode: uint8(n.Op),
		arith: pl.arith, out: pl.out,
	}
	fp.a0 = len(w.ackArena)
	for _, p := range pl.consume {
		in := n.In[p]
		if in.Arc == nil || !c.inHas[p] {
			continue
		}
		c.inHas[p] = false
		w.ackArena = append(w.ackArena, int(in.Arc.From))
	}
	fp.a1 = len(w.ackArena)
	if pl.advance {
		c.srcPos++
	}
	if pl.sink {
		w.pm.sinkVals[n.ID] = appendPrealloc(w.pm.sinkVals[n.ID], pl.out, m.outCap)
		w.pm.sinkArrs[n.ID] = appendArrPrealloc(w.pm.sinkArrs[n.ID],
			exec.Arrival{Cycle: now, Val: pl.out}, m.outCap)
		if m.prog != nil {
			m.prog.Arrivals.Add(1)
		}
	}
	c.pendingAcks = len(pl.targets)
	fp.t0 = len(w.targetArena)
	w.targetArena = append(w.targetArena, pl.targets...)
	fp.t1 = len(w.targetArena)
	if pl.arith {
		fp.v0 = len(w.valArena)
		w.valArena = append(w.valArena, pl.vals...)
		fp.v1 = len(w.valArena)
		w.stat.RingSends++
	} else {
		w.stat.RingSends += int64(fp.t1 - fp.t0)
	}
	w.stat.RingSends += int64(fp.a1 - fp.a0)
	w.fires = append(w.fires, fp)
	return true
}

// classifyStalls records why each owned, non-fired cell is waiting; the
// merge emits the events in global cell-id order.
func (w *machWorker) classifyStalls() {
	m := w.m
	for _, e := range w.endpoints {
		for _, id := range m.residents[e] {
			if m.fired[id] {
				continue
			}
			why := m.planCell(&m.cells[id], &w.plan)
			if why == trace.ReasonNone {
				why = trace.ReasonUnitBusy
			}
			w.pm.stallWhy[id] = why
		}
	}
}

// serial is worker 0's merge: replay buffered emissions in the sequential
// engine's order, decide termination, and run the next cycle's prologue.
func (pm *parMachine) serial() {
	m := pm.m
	now := pm.cycle

	// Function units, ascending (workers own contiguous endpoint ranges,
	// so walking workers in order walks FUs in order): completions' result
	// sends, then the initiation.
	for _, w := range pm.workers {
		for _, act := range w.fuActs {
			for di := act.d0; di < act.d1; di++ {
				d := &w.dones[di]
				if pm.traced {
					m.tr.Emit(trace.Event{
						Cycle: int64(now), Kind: trace.KindFUDone,
						Cell: int32(d.srcCell), Port: -1, Unit: int32(m.fuEndpoint(act.fi)), Src: -1, Dst: -1,
					})
				}
				for _, tgt := range d.targets {
					p := m.newPacket()
					p.kind, p.src, p.dst = pktResult, m.fuEndpoint(act.fi), tgt.endpoint
					p.cell, p.port, p.val = tgt.cell, tgt.port, d.result
					m.emit(p, now)
				}
			}
			if act.initiated && pm.traced {
				m.tr.Emit(trace.Event{
					Cycle: int64(now), Kind: trace.KindFUStart,
					Cell: int32(act.initCell), Port: -1, Unit: int32(m.fuEndpoint(act.fi)), Src: -1, Dst: -1,
					Aux: int64(act.initLat),
				})
			}
		}
	}

	// Retirements, endpoints ascending: firing event, acknowledge packets,
	// then the operation or result sends.
	for _, w := range pm.workers {
		for fi := range w.fires {
			fp := &w.fires[fi]
			if pm.traced {
				m.tr.Emit(trace.Event{
					Cycle: int64(now), Kind: trace.KindFiring,
					Cell: int32(fp.cellID), Port: -1, Unit: int32(fp.endpoint), Src: -1, Dst: -1,
				})
			}
			for _, prod := range w.ackArena[fp.a0:fp.a1] {
				ack := m.newPacket()
				ack.kind, ack.src, ack.dst = pktAck, fp.endpoint, m.cells[prod].endpoint
				ack.cell = prod
				m.emit(ack, now)
			}
			if fp.arith {
				fu := m.fuSeq % m.cfg.FUs
				m.fuSeq++
				p := m.newPacket()
				p.kind, p.src, p.dst = pktOp, fp.endpoint, m.fuEndpoint(fu)
				p.op.opcode = fp.opcode
				p.op.vals = append(p.op.vals, w.valArena[fp.v0:fp.v1]...)
				p.op.targets = append(p.op.targets, w.targetArena[fp.t0:fp.t1]...)
				p.op.srcCell = fp.cellID
				m.emit(p, now)
			} else {
				for _, tgt := range w.targetArena[fp.t0:fp.t1] {
					p := m.newPacket()
					p.kind, p.src, p.dst = pktResult, fp.endpoint, tgt.endpoint
					p.cell, p.port, p.val = tgt.cell, tgt.port, fp.out
					m.emit(p, now)
				}
			}
		}
	}
	if pm.traced {
		for id := range m.cells {
			if m.fired[id] {
				continue
			}
			why := pm.stallWhy[id]
			if why == trace.ReasonDone {
				continue
			}
			m.tr.Emit(trace.Event{
				Cycle: int64(now), Kind: trace.KindStall,
				Cell: int32(id), Port: -1, Unit: int32(m.cells[id].endpoint), Src: -1, Dst: -1, Reason: why,
			})
		}
	}

	active := len(pm.due) > 0
	for _, w := range pm.workers {
		m.pktFree = append(m.pktFree, w.freed...)
		w.freed = w.freed[:0]
		if w.active {
			active = true
		}
	}
	if m.net.pending() > 0 || m.inflight > 0 {
		active = true
	}
	if m.opNet != nil && m.opNet.pending() > 0 {
		active = true
	}

	if !active {
		pm.endCycle = now
		pm.stop = true
		return
	}
	pm.cycle++
	if pm.cycle >= m.cfg.MaxCycles {
		pm.endCycle = pm.cycle
		pm.stop = true
		pm.maxed = true
		return
	}
	// Cancellation poll at the same cadence as the sequential loop; only
	// worker 0 runs serial(), and the post-serial barrier publishes stop
	// to the other workers before the next cycle begins.
	if m.cfg.Ctx != nil && pm.cycle&(exec.CancelCadence-1) == 0 {
		select {
		case <-m.cfg.Ctx.Done():
			pm.endCycle = pm.cycle
			pm.stop = true
			m.canceled = true
			return
		default:
		}
	}
	pm.prologue(pm.cycle)
}

// diagnose names, per shard, the work left pending when a sharded run hit
// MaxCycles, so stall reports stay actionable under -workers.
func (pm *parMachine) diagnose() []string {
	m := pm.m
	var out []string
	for _, w := range pm.workers {
		inflight, awaitingAcks, held := 0, 0, 0
		for _, fi := range w.fuIdx {
			inflight += m.fus[fi].inflight + m.fus[fi].queue.len()
		}
		for _, e := range w.endpoints {
			for _, id := range m.residents[e] {
				c := &m.cells[id]
				if c.pendingAcks > 0 {
					awaitingAcks++
				}
				for _, has := range c.inHas {
					if has {
						held++
					}
				}
			}
		}
		out = append(out, fmt.Sprintf(
			"shard %d: %d endpoints, %d resident cells, %d firings, %d FU operations pending at halt, %d cells awaiting acks, %d held operand tokens",
			w.id, len(w.endpoints), w.stat.Cells, w.stat.Firings, inflight, awaitingAcks, held))
	}
	return out
}
