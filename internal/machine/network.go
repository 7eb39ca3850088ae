package machine

import (
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// packetKind classifies traffic per the paper's §2: operation packets
// (instruction shipped to a function unit), result packets (values to
// operand slots), and acknowledge packets (the reverse paths of §3).
type packetKind uint8

const (
	pktResult packetKind = iota
	pktAck
	pktOp
)

func (k packetKind) String() string {
	switch k {
	case pktResult:
		return "result"
	case pktAck:
		return "ack"
	default:
		return "operation"
	}
}

// traceKind maps the machine's packet classes onto the observability
// layer's.
func (k packetKind) traceKind() trace.PacketKind {
	switch k {
	case pktAck:
		return trace.PacketAck
	case pktOp:
		return trace.PacketOp
	default:
		return trace.PacketResult
	}
}

// packet is one unit of routing-network traffic.
type packet struct {
	kind packetKind
	// arc is a result packet's destination arc: the operand slot it fills.
	arc      int32
	src, dst int // endpoint ids
	// result packets: destination cell/port and the value; ack packets:
	// the producer cell.
	cell int
	port int
	val  value.Value
	// operation packets: opcode, operand values, and the destinations the
	// function unit must send result packets to.
	op opPayload
	// sentAt is the cycle the packet entered the network; delivery minus
	// sentAt is the observed transit time, queueing included.
	sentAt int
	// seq is the network's send order, stamped by crossbar.send so
	// same-cycle deliveries can be reported in send order.
	seq int
}

// trCell is the cell a trace event about this packet should reference: the
// destination cell for result/ack packets, the shipping cell for operation
// packets.
func (p *packet) trCell() int {
	if p.kind == pktOp {
		return p.op.srcCell
	}
	return p.cell
}

// opPayload is the body of an operation packet.
type opPayload struct {
	opcode  uint8
	vals    []value.Value
	targets []target
	srcCell int // for accounting
}

// target is one destination of a firing: the arc a result packet fills
// and the endpoint hosting its consumer.
type target struct {
	endpoint int
	arc      int32
}

// network models a routing network between endpoints. step advances one
// cycle and returns the packets delivered this cycle; pending reports
// undelivered traffic (for quiescence detection).
type network interface {
	send(p *packet)
	step() []*packet
	pending() int
}

// fifo is a packet queue held in a power-of-two ring indexed from its head,
// so steady push/pop traffic reuses one buffer; it grows (doubling) only
// when more packets are queued at once than ever before.
type fifo struct {
	ring []*packet
	head int
	n    int
}

func (f *fifo) len() int { return f.n }

func (f *fifo) push(p *packet) {
	if f.n == len(f.ring) {
		grown := make([]*packet, max(4, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
		}
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = p
	f.n++
}

// pop removes and returns the oldest packet; the queue must be non-empty.
func (f *fifo) pop() *packet {
	p := f.ring[f.head]
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	return p
}

// crossbar is the simple RN model: fixed transit delay plus one-packet-
// per-cycle serialization at each destination endpoint. It is organized as
// a time wheel: a packet sent at cycle t lands in the wheel slot for cycle
// t+delay, and step drains exactly one slot into the per-destination FIFO
// queues, delivering at most one packet per destination per cycle. With a
// constant delay, wheel order is send order, so the per-destination queues
// are FIFO in send order and the delivered list (sorted by send sequence)
// matches a linear scan of an insertion-ordered in-flight list.
type crossbar struct {
	delay  int
	now    int
	seq    int         // send counter, stamped onto packets
	wheel  [][]*packet // wheel[readyAt % (delay+1)], send order within a slot
	queues []fifo      // per-destination arrived-but-blocked FIFOs
	npend  int
	out    []*packet // delivered-this-cycle buffer, reused across cycles
}

func newCrossbar(endpoints, delay int) *crossbar {
	if delay < 1 {
		delay = 1 // delay 0 and 1 behave identically (delivery is next cycle at best)
	}
	return &crossbar{
		delay:  delay,
		wheel:  make([][]*packet, delay+1),
		queues: make([]fifo, endpoints),
	}
}

func (c *crossbar) send(p *packet) {
	p.seq = c.seq
	c.seq++
	slot := (c.now + c.delay) % (c.delay + 1)
	c.wheel[slot] = append(c.wheel[slot], p)
	c.npend++
}

func (c *crossbar) step() []*packet {
	c.now++
	if c.npend == 0 {
		return nil
	}
	// Packets whose transit completes this cycle join their destination's
	// delivery queue; all earlier slots have already been drained, so the
	// queue stays ordered by send sequence.
	slot := c.now % (c.delay + 1)
	arrived := c.wheel[slot]
	c.wheel[slot] = arrived[:0]
	for _, p := range arrived {
		c.queues[p.dst].push(p)
	}
	out := c.out[:0]
	for dst := range c.queues {
		if q := &c.queues[dst]; q.len() > 0 {
			out = append(out, q.pop())
			c.npend--
		}
	}
	// Restore global send order across destinations. There is at most one
	// packet per destination, so the list is tiny and an in-place
	// insertion sort is cheapest (sort.Slice would allocate every cycle).
	for i := 1; i < len(out); i++ {
		p := out[i]
		j := i
		for ; j > 0 && out[j-1].seq > p.seq; j-- {
			out[j] = out[j-1]
		}
		out[j] = p
	}
	c.out = out
	return out
}

func (c *crossbar) pending() int { return c.npend }

// butterfly is a log₂(N)-stage packet-switched delta network of 2×2
// switches — the "packet switched networks" proposed for the routing
// networks in Dennis, Boughton & Leung [2]. Each stage row forwards at
// most one packet per cycle; contention queues grow as needed (the
// physical network applies backpressure, which for the traffic levels of
// these simulations is equivalent to short queues).
type butterfly struct {
	n      int // endpoints padded to a power of two
	stages int
	queues [][]fifo // [stage][row]
	count  int
	out    []*packet // delivered-this-cycle buffer, reused across cycles
}

func newButterfly(endpoints int) *butterfly {
	n := 1
	stages := 0
	for n < endpoints {
		n *= 2
		stages++
	}
	if stages == 0 {
		stages = 1
	}
	b := &butterfly{n: n, stages: stages}
	b.queues = make([][]fifo, stages+1)
	for s := range b.queues {
		b.queues[s] = make([]fifo, n)
	}
	return b
}

func (b *butterfly) send(p *packet) {
	b.queues[0][p.src%b.n].push(p)
	b.count++
}

// step advances every switch stage one cycle. queues[s][row] holds packets
// that have traversed s stages and sit at the given row; stage s+1 routes
// by replacing bit (stages−1−s) of the row with the destination's bit, so
// after all stages the row equals the destination. Later stages move first
// so a packet traverses exactly one stage per cycle.
func (b *butterfly) step() []*packet {
	out := b.out[:0]
	for s := b.stages - 1; s >= 0; s-- {
		bit := b.stages - 1 - s
		mask := 1 << bit
		for row := 0; row < b.n; row++ {
			q := &b.queues[s][row]
			if q.len() == 0 {
				continue
			}
			p := q.pop()
			next := (row &^ mask) | (p.dst % b.n & mask)
			if s+1 == b.stages {
				out = append(out, p)
				b.count--
			} else {
				b.queues[s+1][next].push(p)
			}
		}
	}
	b.out = out
	return out
}

func (b *butterfly) pending() int { return b.count }
