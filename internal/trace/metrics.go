package trace

import (
	"fmt"
	"sort"
	"strings"
)

// CellMetrics aggregates one instruction cell's observed behaviour.
type CellMetrics struct {
	// Firings counts firings; First/Last are the first and last firing
	// cycles.
	Firings     int64
	First, Last int64
	// OperandWait / AckWait / UnitBusy count cycles the cell was observed
	// stalled for each reason (one stall event per cell per cycle).
	OperandWait int64
	AckWait     int64
	UnitBusy    int64
	// Tokens and Acks count arrivals at (tokens) and for (acks) the cell.
	Tokens int64
	Acks   int64
	// Interval is the distribution of inter-firing intervals in cycles —
	// the per-cell shape behind the mean AchievedII, distinguishing a fill
	// transient (a few long intervals, tight steady state) from a
	// structural stall (every interval long).
	Interval Histogram
}

// AchievedII returns the cell's mean inter-firing interval in cycles over
// the whole run, the measured counterpart of the paper's "once every two
// instruction times". Returns 0 for fewer than two firings.
func (c *CellMetrics) AchievedII() float64 {
	if c.Firings < 2 {
		return 0
	}
	return float64(c.Last-c.First) / float64(c.Firings-1)
}

// StallCycles returns the total observed stall cycles.
func (c *CellMetrics) StallCycles() int64 { return c.OperandWait + c.AckWait + c.UnitBusy }

// UnitMetrics aggregates one machine endpoint (PE, FU, or AM).
type UnitMetrics struct {
	// Firings counts instructions retired at the endpoint (its PE/AM
	// instruction bandwidth is one per cycle).
	Firings int64
	// FUOps counts operations initiated when the endpoint is a function
	// unit.
	FUOps int64
	// Sent / Delivered count packets leaving from and arriving at the
	// endpoint. The crossbar serializes one delivery per endpoint per
	// cycle, so Delivered/cycles ≈ 1 is a saturated network port.
	Sent      int64
	Delivered int64
	// TransitSum accumulates delivered packets' transit cycles; the mean
	// transit minus the configured network delay is pure queueing.
	TransitSum int64
	// Transit is the distribution of delivered-packet transit times at the
	// endpoint (queueing included), the shape behind MeanTransit.
	Transit Histogram
	// Service is the distribution of function-unit service times: for each
	// operation, the cycles from its operation packet's delivery at the FU
	// until initiation (queue wait) plus the pipeline latency. Populated
	// only for FU endpoints.
	Service Histogram
}

// Metrics is the per-cell/per-unit aggregating sink. It holds O(cells +
// endpoints) state regardless of run length.
type Metrics struct {
	meta      Meta
	Cells     []CellMetrics
	Units     []UnitMetrics
	Packets   [NumPacketKinds]int64 // sends by packet kind
	Events    int64
	lastCycle int64
	// opPend tracks, per FU endpoint, the delivery cycles of operation
	// packets that have arrived but not yet initiated. The machine's FU
	// initiation queue is strictly FIFO, so pairing each fu-start with the
	// oldest pending delivery reconstructs the exact queue wait.
	opPend []pendQueue
}

// pendQueue is a FIFO of delivery cycles with a popped-prefix head index,
// compacted when the dead prefix dominates.
type pendQueue struct {
	q    []int64
	head int
}

func (p *pendQueue) push(v int64) { p.q = append(p.q, v) }

func (p *pendQueue) pop() (int64, bool) {
	if p.head >= len(p.q) {
		return 0, false
	}
	v := p.q[p.head]
	p.head++
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	} else if p.head > 64 && p.head*2 > len(p.q) {
		n := copy(p.q, p.q[p.head:])
		p.q = p.q[:n]
		p.head = 0
	}
	return v, true
}

func (p *pendQueue) clone() pendQueue {
	return pendQueue{q: append([]int64(nil), p.q...), head: p.head}
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics { return &Metrics{lastCycle: -1} }

// Start sizes the aggregates from the run metadata.
func (m *Metrics) Start(meta Meta) {
	m.meta = meta
	if n := len(meta.Cells); n > len(m.Cells) {
		m.Cells = append(m.Cells, make([]CellMetrics, n-len(m.Cells))...)
	}
	if n := len(meta.Units); n > len(m.Units) {
		m.Units = append(m.Units, make([]UnitMetrics, n-len(m.Units))...)
	}
}

// Meta returns the metadata announced by Start.
func (m *Metrics) Meta() Meta { return m.meta }

func (m *Metrics) cell(id int32) *CellMetrics {
	for int(id) >= len(m.Cells) {
		m.Cells = append(m.Cells, CellMetrics{})
	}
	return &m.Cells[id]
}

func (m *Metrics) unit(id int32) *UnitMetrics {
	for int(id) >= len(m.Units) {
		m.Units = append(m.Units, UnitMetrics{})
	}
	return &m.Units[id]
}

func (m *Metrics) pend(unit int32) *pendQueue {
	for int(unit) >= len(m.opPend) {
		m.opPend = append(m.opPend, pendQueue{})
	}
	return &m.opPend[unit]
}

// Clone returns a deep copy of the aggregates: the per-cell and per-unit
// slices (histograms are value types, so the copy is complete) and the
// packet counters. The Meta is shared — it is written once at Start and
// read-only afterwards. Clone is the snapshot primitive the
// concurrency-safe Live wrapper builds on.
func (m *Metrics) Clone() *Metrics {
	c := &Metrics{
		meta:      m.meta,
		Cells:     append([]CellMetrics(nil), m.Cells...),
		Units:     append([]UnitMetrics(nil), m.Units...),
		Packets:   m.Packets,
		Events:    m.Events,
		lastCycle: m.lastCycle,
	}
	if len(m.opPend) > 0 {
		c.opPend = make([]pendQueue, len(m.opPend))
		for i := range m.opPend {
			c.opPend[i] = m.opPend[i].clone()
		}
	}
	return c
}

// Emit aggregates one event.
func (m *Metrics) Emit(e Event) {
	m.Events++
	if e.Cycle > m.lastCycle {
		m.lastCycle = e.Cycle
	}
	switch e.Kind {
	case KindFiring:
		c := m.cell(e.Cell)
		if c.Firings == 0 {
			c.First = e.Cycle
		} else {
			c.Interval.Observe(e.Cycle - c.Last)
		}
		c.Firings++
		c.Last = e.Cycle
		if e.Unit >= 0 {
			m.unit(e.Unit).Firings++
		}
	case KindToken:
		m.cell(e.Cell).Tokens++
	case KindAck:
		m.cell(e.Cell).Acks++
	case KindSend:
		m.Packets[e.Packet]++
		if e.Src >= 0 {
			m.unit(e.Src).Sent++
		}
	case KindDeliver:
		if e.Dst >= 0 {
			u := m.unit(e.Dst)
			u.Delivered++
			u.TransitSum += e.Aux
			u.Transit.Observe(e.Aux)
		}
		switch e.Packet {
		case PacketResult:
			if e.Cell >= 0 {
				m.cell(e.Cell).Tokens++
			}
		case PacketAck:
			if e.Cell >= 0 {
				m.cell(e.Cell).Acks++
			}
		case PacketOp:
			if e.Dst >= 0 {
				m.pend(e.Dst).push(e.Cycle)
			}
		}
	case KindFUStart:
		if e.Unit >= 0 {
			u := m.unit(e.Unit)
			u.FUOps++
			// Service time = queue wait since the operation packet's
			// delivery plus the pipeline latency (Aux). FUs initiate in
			// delivery order, so the oldest pending delivery is this op's.
			if t, ok := m.pend(e.Unit).pop(); ok {
				u.Service.Observe(e.Cycle - t + e.Aux)
			}
		}
	case KindStall:
		c := m.cell(e.Cell)
		switch e.Reason {
		case ReasonOperandWait:
			c.OperandWait++
		case ReasonAckWait:
			c.AckWait++
		case ReasonUnitBusy:
			c.UnitBusy++
		}
	}
}

// Cycles returns the observed run length (last event cycle + 1), the
// denominator of the occupancy figures.
func (m *Metrics) Cycles() int64 { return m.lastCycle + 1 }

// Occupancy returns the endpoint's instruction-retirement occupancy: the
// fraction of cycles it retired an instruction (for FUs, initiated an
// operation). 1.0 is saturation.
func (m *Metrics) Occupancy(unit int) float64 {
	if m.Cycles() <= 0 || unit < 0 || unit >= len(m.Units) {
		return 0
	}
	busy := m.Units[unit].Firings
	if m.Units[unit].FUOps > busy {
		busy = m.Units[unit].FUOps
	}
	return float64(busy) / float64(m.Cycles())
}

// DeliveryOccupancy returns the endpoint's packet arrival rate in
// deliveries per cycle. The crossbar serializes network traffic to one
// delivery per endpoint per cycle, so 1.0 means the network port is the
// bottleneck; same-endpoint (local) packets bypass the network, so a
// hot-spotted endpoint can exceed 1.0 — unambiguous overload.
func (m *Metrics) DeliveryOccupancy(unit int) float64 {
	if m.Cycles() <= 0 || unit < 0 || unit >= len(m.Units) {
		return 0
	}
	return float64(m.Units[unit].Delivered) / float64(m.Cycles())
}

// MeanTransit returns the endpoint's mean delivered-packet transit time in
// cycles (0 if nothing was delivered).
func (m *Metrics) MeanTransit(unit int) float64 {
	if unit < 0 || unit >= len(m.Units) || m.Units[unit].Delivered == 0 {
		return 0
	}
	return float64(m.Units[unit].TransitSum) / float64(m.Units[unit].Delivered)
}

// Summary renders a compact human-readable digest: run length, packet
// counts, the busiest units, and the most-stalled cells.
func (m *Metrics) Summary(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "observed %d events over %d cycles\n", m.Events, m.Cycles())
	if total := m.Packets[PacketResult] + m.Packets[PacketAck] + m.Packets[PacketOp]; total > 0 {
		fmt.Fprintf(&b, "packets: %d result, %d ack, %d operation\n",
			m.Packets[PacketResult], m.Packets[PacketAck], m.Packets[PacketOp])
	}
	if len(m.Units) > 0 {
		fmt.Fprintf(&b, "units (occupancy / delivery occupancy / mean transit):\n")
		for u := range m.Units {
			if m.Units[u].Firings == 0 && m.Units[u].FUOps == 0 && m.Units[u].Delivered == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-6s %5.1f%%  %5.1f%%  %6.2f\n",
				m.meta.UnitName(u), 100*m.Occupancy(u), 100*m.DeliveryOccupancy(u), m.MeanTransit(u))
		}
	}
	type row struct {
		id    int
		stall int64
	}
	rows := make([]row, 0, len(m.Cells))
	for i := range m.Cells {
		if s := m.Cells[i].StallCycles(); s > 0 {
			rows = append(rows, row{i, s})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].stall != rows[j].stall {
			return rows[i].stall > rows[j].stall
		}
		return rows[i].id < rows[j].id
	})
	if top <= 0 || top > len(rows) {
		top = len(rows)
	}
	if top > 0 {
		fmt.Fprintf(&b, "most-stalled cells (operand-wait / ack-wait / unit-busy):\n")
		for _, r := range rows[:top] {
			c := &m.Cells[r.id]
			fmt.Fprintf(&b, "  %-24s II=%6.2f  %6d %6d %6d\n",
				m.meta.CellName(r.id), c.AchievedII(), c.OperandWait, c.AckWait, c.UnitBusy)
		}
	}
	return b.String()
}
