package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// laneViewM adapts one lane of a batched result to the scalar Result shape
// so requireSameMachineResult can compare it field for field.
func laneViewM(r *Result, l int) *Result {
	lr := r.Lanes[l]
	return &Result{
		Cycles:       lr.Cycles,
		Outputs:      lr.Outputs,
		Arrivals:     lr.Arrivals,
		Packets:      lr.Packets,
		AMPackets:    lr.AMPackets,
		TotalPackets: lr.TotalPackets,
		PEBusy:       lr.PEBusy,
		FUBusy:       lr.FUBusy,
		Clean:        lr.Clean,
		Canceled:     lr.Canceled,
		Stalled:      lr.Stalled,
	}
}

// TestMachineBatchedLaneIdentity is the packet-level half of the batched
// identity contract: with every lane fed the graph's bound streams, every
// lane's view — including packet counts and busy counters — and the
// top-level fields (lane 0's) are byte-identical to a scalar run, for any
// lane count.
func TestMachineBatchedLaneIdentity(t *testing.T) {
	for name, tc := range machineCases() {
		seq, err := Run(tc.build(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, b := range []int{1, 4, 16} {
			cfg := tc.cfg
			cfg.Batch = b
			bat, err := Run(tc.build(), cfg)
			if err != nil {
				t.Fatalf("%s B=%d: %v", name, b, err)
			}
			requireSameMachineResult(t, fmt.Sprintf("%s B=%d top", name, b), seq, bat)
			if b <= 1 {
				if bat.Batch != 0 || bat.Lanes != nil {
					t.Errorf("%s B=%d: scalar run reports batch fields", name, b)
				}
				continue
			}
			if bat.Batch != b || len(bat.Lanes) != b {
				t.Fatalf("%s B=%d: Batch=%d len(Lanes)=%d", name, b, bat.Batch, len(bat.Lanes))
			}
			for l := 0; l < b; l++ {
				requireSameMachineResult(t, fmt.Sprintf("%s B=%d lane %d", name, b, l), seq, laneViewM(bat, l))
			}
		}
	}
}

// TestMachineBatchedTraceByteIdentical pins the lane-0 trace contract on
// the packet-level core: firings, sends, deliveries, FU activity, and
// stall events of a batched run equal the scalar stream event for event.
func TestMachineBatchedTraceByteIdentical(t *testing.T) {
	for name, tc := range machineCases() {
		var seqRec machRecorder
		cfg := tc.cfg
		cfg.Tracer = &seqRec
		if _, err := Run(tc.build(), cfg); err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		var batRec machRecorder
		bcfg := tc.cfg
		bcfg.Tracer = &batRec
		bcfg.Batch = 4
		if _, err := Run(tc.build(), bcfg); err != nil {
			t.Fatalf("%s B=4: %v", name, err)
		}
		if !reflect.DeepEqual(seqRec.meta, batRec.meta) {
			t.Errorf("%s B=4: trace metadata diverges", name)
		}
		if !reflect.DeepEqual(seqRec.events, batRec.events) {
			t.Errorf("%s B=4: event streams diverge (%d vs %d events)",
				name, len(seqRec.events), len(batRec.events))
		}
	}
}

// chainWith is cancelChain with a caller-supplied stream, for per-lane
// input tests that need a matching scalar reference graph.
func chainWith(stream []value.Value, d int) *graph.Graph {
	g := graph.New()
	prev := g.AddSource("in", stream)
	for s := 0; s < d; s++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, g.AddSink("out"), 0)
	return g
}

// TestMachineBatchedLaneInputs feeds every lane a distinct stream
// (including one of a different length) and checks each lane's view equals
// a scalar run of that lane's stream.
func TestMachineBatchedLaneInputs(t *testing.T) {
	mk := func(n, off int) []value.Value {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + off)
		}
		return value.Reals(vals)
	}
	base := mk(24, 0)
	const b = 4
	laneIn := make([]map[string][]value.Value, b)
	for l := 1; l < b; l++ {
		s := mk(24, l*100)
		if l == 2 {
			s = s[:10] // shorter stream: this lane quiesces earlier
		}
		laneIn[l] = map[string][]value.Value{"in": s}
	}
	cfg := Config{PEs: 2, Batch: b, LaneInputs: laneIn}
	bat, err := Run(chainWith(base, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < b; l++ {
		stream := base
		if l > 0 {
			stream = laneIn[l]["in"]
		}
		seq, err := Run(chainWith(stream, 4), Config{PEs: 2})
		if err != nil {
			t.Fatalf("lane %d sequential: %v", l, err)
		}
		requireSameMachineResult(t, fmt.Sprintf("lane %d", l), seq, laneViewM(bat, l))
	}
	if bat.Lanes[2].Cycles >= bat.Lanes[1].Cycles {
		t.Errorf("short lane 2 quiesced at cycle %d, not before lane 1's %d",
			bat.Lanes[2].Cycles, bat.Lanes[1].Cycles)
	}
}

// TestMachineBatchedValidation pins the option-validation errors.
func TestMachineBatchedValidation(t *testing.T) {
	g := func() *graph.Graph { return cancelChain(4, 2) }
	if _, err := Run(g(), Config{Batch: exec.MaxBatch + 1}); err == nil ||
		!strings.Contains(err.Error(), "lane limit") {
		t.Errorf("oversized batch: err=%v", err)
	}
	if _, err := Run(g(), Config{Batch: 2, LaneInputs: make([]map[string][]value.Value, 3)}); err == nil ||
		!strings.Contains(err.Error(), "lane input sets") {
		t.Errorf("excess lane inputs: err=%v", err)
	}
	bad := []map[string][]value.Value{nil, {"nope": nil}}
	if _, err := Run(g(), Config{Batch: 2, LaneInputs: bad}); err == nil ||
		!strings.Contains(err.Error(), "names no source cell") {
		t.Errorf("unknown lane input label: err=%v", err)
	}
}

// TestMachineBatchedPartialResult pins the MaxCycles path at B>1: the
// error and lane 0's partial view stay byte-identical to the scalar
// engine, and every lane carries its own partial view.
func TestMachineBatchedPartialResult(t *testing.T) {
	tc := machineCases()["fig2-crossbar"]
	cfg := tc.cfg
	cfg.MaxCycles = 40
	seq, seqErr := Run(tc.build(), cfg)
	if seqErr == nil {
		t.Fatal("sequential run unexpectedly quiesced in 40 cycles")
	}
	cfg.Batch = 4
	bat, batErr := Run(tc.build(), cfg)
	if batErr == nil {
		t.Fatal("batched run unexpectedly quiesced")
	}
	if seqErr.Error() != batErr.Error() {
		t.Errorf("error %q, sequential %q", batErr, seqErr)
	}
	requireSameMachineResult(t, "partial top", seq, bat)
	for l := 0; l < 4; l++ {
		requireSameMachineResult(t, fmt.Sprintf("partial lane %d", l), seq, laneViewM(bat, l))
	}
}

// TestMachineBatchedLaneTelemetry attaches the live telemetry stack to a
// batched machine run and checks the per-lane counter blocks are populated
// and consistent.
func TestMachineBatchedLaneTelemetry(t *testing.T) {
	tc := machineCases()["wide-butterfly"]
	seq, err := Run(tc.build(), tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := &trace.Progress{}
	cfg := tc.cfg
	cfg.Batch = 8
	cfg.Tracer = trace.NewLive()
	cfg.Progress = prog
	bat, err := Run(tc.build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMachineResult(t, "telemetry", seq, bat)
	lanes := prog.BatchLanes()
	if len(lanes) != 8 {
		t.Fatalf("progress exposes %d lane counter blocks, want 8", len(lanes))
	}
	var arrivals int64
	for l, lc := range lanes {
		arrivals += lc.Arrivals.Load()
		if lc.Done.Load() != 1 {
			t.Errorf("lane %d not marked done", l)
		}
		if got, want := lc.Cycles.Load(), int64(bat.Lanes[l].Cycles); got != want {
			t.Errorf("lane %d live cycle counter %d, want %d", l, got, want)
		}
	}
	var want int64
	for _, arrs := range bat.Arrivals {
		want += int64(len(arrs))
	}
	if arrivals != want*8 {
		t.Errorf("live arrival counters sum to %d, want %d", arrivals, want*8)
	}
	if got := prog.Arrivals.Load(); got != want*8 {
		t.Errorf("aggregate arrival counter %d, want %d", got, want*8)
	}
}

type machineCase struct {
	build func() *graph.Graph
	cfg   Config
}

// machineCases cover every machine feature a batched lane must reproduce:
// FU traffic, both network models, split fabrics, gated arcs, merge loops,
// and FIFO expansion.
func machineCases() map[string]machineCase {
	return map[string]machineCase{
		"fig2-crossbar": {
			build: func() *graph.Graph { g, _ := fig2(48); return g },
			cfg:   Config{PEs: 4, AMs: 2},
		},
		"wide-butterfly": {
			build: func() *graph.Graph { return wideGraph(6, 24) },
			cfg:   Config{PEs: 8, FUs: 4, AMs: 3, Network: Butterfly},
		},
		"fig2-split-nets": {
			build: func() *graph.Graph { g, _ := fig2(32); return g },
			cfg:   Config{PEs: 4, FUs: 2, AMs: 2, SplitNetworks: true},
		},
		"loop": {
			build: func() *graph.Graph {
				g := graph.New()
				a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
				add := g.Add(graph.OpAdd, "acc")
				merge := g.Add(graph.OpMerge, "m")
				g.Connect(g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, 0)
				g.Connect(a, add, 0)
				g.Connect(add, merge, 1)
				g.SetLiteral(merge, 2, value.I(0))
				gp := g.AddGate(merge)
				g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, gp)
				fb := g.ConnectGated(merge, gp, add, 1)
				fb.Feedback = true
				g.Connect(merge, g.AddSink("x"), 0)
				return g
			},
			cfg: Config{PEs: 2},
		},
		"gated-fifo": {
			build: func() *graph.Graph {
				g := graph.New()
				n := 12
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = float64(i)
				}
				src := g.AddSource("C", value.Reals(vals))
				ctl := g.AddCtl("sel", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: n - 2, Suffix: []bool{false}})
				gate := g.Add(graph.OpTGate, "sel")
				f := g.AddFIFO("buf", 3)
				g.Connect(ctl, gate, 0)
				g.Connect(src, gate, 1)
				g.Connect(gate, f, 0)
				g.Connect(f, g.AddSink("out"), 0)
				return g
			},
			cfg: Config{PEs: 3, AMs: 2},
		},
	}
}

// requireSameMachineResult compares every observable Result field of two
// runs.
func requireSameMachineResult(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if seq.Cycles != par.Cycles {
		t.Errorf("%s: cycles %d, sequential %d", name, par.Cycles, seq.Cycles)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Errorf("%s: outputs diverge", name)
	}
	if !reflect.DeepEqual(seq.Arrivals, par.Arrivals) {
		t.Errorf("%s: arrival streams diverge", name)
	}
	if !reflect.DeepEqual(seq.Packets, par.Packets) || seq.TotalPackets != par.TotalPackets || seq.AMPackets != par.AMPackets {
		t.Errorf("%s: packet statistics diverge: %v/%d/%d vs %v/%d/%d", name,
			par.Packets, par.TotalPackets, par.AMPackets, seq.Packets, seq.TotalPackets, seq.AMPackets)
	}
	if !reflect.DeepEqual(seq.PEBusy, par.PEBusy) || !reflect.DeepEqual(seq.FUBusy, par.FUBusy) {
		t.Errorf("%s: busy counters diverge: PE %v vs %v, FU %v vs %v", name,
			par.PEBusy, seq.PEBusy, par.FUBusy, seq.FUBusy)
	}
	if seq.Clean != par.Clean {
		t.Errorf("%s: clean %v, sequential %v", name, par.Clean, seq.Clean)
	}
	if !reflect.DeepEqual(seq.Stalled, par.Stalled) {
		t.Errorf("%s: stall diagnostics diverge\nseq: %v\npar: %v", name, seq.Stalled, par.Stalled)
	}
}

// machRecorder keeps the verbatim event stream for byte-level comparison.
type machRecorder struct {
	meta   trace.Meta
	events []trace.Event
}

func (r *machRecorder) Start(m trace.Meta) { r.meta = m }
func (r *machRecorder) Emit(e trace.Event) { r.events = append(r.events, e) }
