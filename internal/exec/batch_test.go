package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// batchSweep is the lane-count sweep the identity contract promises.
var batchSweep = []int{1, 4, 16}

// laneView adapts one lane of a batched result to the scalar Result shape
// so requireSameResult can compare it field for field.
func laneView(r *Result, l int) *Result {
	lr := r.Lanes[l]
	return &Result{
		Cycles:   lr.Cycles,
		Firings:  lr.Firings,
		Outputs:  lr.Outputs,
		Arrivals: lr.Arrivals,
		Clean:    lr.Clean,
		Canceled: lr.Canceled,
		Stalled:  lr.Stalled,
	}
}

// TestBatchedLaneIdentity is the package-level half of the batched
// identity contract: with every lane fed the graph's bound streams, every
// lane's view — and the top-level fields, which must be lane 0's — is
// byte-identical to the sequential engine, for any lane count and any
// lane-sharding worker count.
func TestBatchedLaneIdentity(t *testing.T) {
	for name, build := range engineCases() {
		seq, err := Run(build(), Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, b := range batchSweep {
			for _, w := range []int{1, 2, 4} {
				bat, err := Run(build(), Options{Batch: b, Workers: w})
				if err != nil {
					t.Fatalf("%s B=%d W=%d: %v", name, b, w, err)
				}
				requireSameResult(t, fmt.Sprintf("%s B=%d W=%d top", name, b, w), seq, bat)
				if b <= 1 {
					if bat.Batch != 0 || bat.Lanes != nil {
						t.Errorf("%s B=%d: scalar run reports batch fields", name, b)
					}
					continue
				}
				if bat.Batch != b || len(bat.Lanes) != b {
					t.Fatalf("%s B=%d W=%d: Batch=%d len(Lanes)=%d", name, b, w, bat.Batch, len(bat.Lanes))
				}
				for l := 0; l < b; l++ {
					requireSameResult(t, fmt.Sprintf("%s B=%d W=%d lane %d", name, b, w, l), seq, laneView(bat, l))
				}
			}
		}
	}
}

// TestBatchedTraceByteIdentical pins the lane-0 trace contract: the
// structured event stream and the debug-callback sequence of a batched run
// must equal the sequential ones event for event, at any worker count.
func TestBatchedTraceByteIdentical(t *testing.T) {
	for name, build := range engineCases() {
		var seqRec recorder
		var seqLines []string
		seqTrace := func(cycle int, n *graph.Node, out value.Value) {
			seqLines = append(seqLines, fmt.Sprintf("%d %s %v", cycle, n.Name(), out))
		}
		if _, err := Run(build(), Options{Tracer: &seqRec, Trace: seqTrace}); err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, b := range []int{4, 16} {
			for _, w := range []int{1, 4} {
				var batRec recorder
				var batLines []string
				batTrace := func(cycle int, n *graph.Node, out value.Value) {
					batLines = append(batLines, fmt.Sprintf("%d %s %v", cycle, n.Name(), out))
				}
				if _, err := Run(build(), Options{Batch: b, Workers: w, Tracer: &batRec, Trace: batTrace}); err != nil {
					t.Fatalf("%s B=%d W=%d: %v", name, b, w, err)
				}
				if !reflect.DeepEqual(seqRec.meta, batRec.meta) {
					t.Errorf("%s B=%d W=%d: trace metadata diverges", name, b, w)
				}
				if !reflect.DeepEqual(seqRec.events, batRec.events) {
					t.Errorf("%s B=%d W=%d: event streams diverge (%d vs %d events)",
						name, b, w, len(seqRec.events), len(batRec.events))
					for i := range seqRec.events {
						if i >= len(batRec.events) || seqRec.events[i] != batRec.events[i] {
							t.Errorf("  first divergence at event %d: seq=%+v", i, seqRec.events[i])
							if i < len(batRec.events) {
								t.Errorf("  bat=%+v", batRec.events[i])
							}
							break
						}
					}
				}
				if !reflect.DeepEqual(seqLines, batLines) {
					t.Errorf("%s B=%d W=%d: debug-callback lines diverge", name, b, w)
				}
			}
		}
	}
}

// scaleGraph is a small labeled-input pipeline for per-lane stream tests:
// out[i] = in[i] * 3.
func scaleGraph(stream []value.Value) *graph.Graph {
	g := graph.New()
	src := g.AddSource("in", stream)
	mul := g.Add(graph.OpMul, "")
	g.SetLiteral(mul, 1, value.R(3))
	g.Connect(src, mul, 0)
	g.Connect(mul, g.AddSink("out"), 0)
	return g
}

// rot rotates a stream by l positions — cheap distinct per-lane inputs.
func rot(vs []value.Value, l int) []value.Value {
	l = l % len(vs)
	return append(append([]value.Value(nil), vs[l:]...), vs[:l]...)
}

// TestBatchedLaneInputs feeds every lane a distinct stream (including one
// of a different length) and checks each lane's view equals a sequential
// run of that lane's stream.
func TestBatchedLaneInputs(t *testing.T) {
	base := value.Reals(ramp(24))
	const b = 4
	laneIn := make([]map[string][]value.Value, b)
	for l := 1; l < b; l++ {
		s := rot(base, l*3)
		if l == 2 {
			s = s[:10] // shorter stream: this lane quiesces earlier
		}
		laneIn[l] = map[string][]value.Value{"in": s}
	}
	bat, err := Run(scaleGraph(base), Options{Batch: b, LaneInputs: laneIn})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < b; l++ {
		stream := base
		if l > 0 {
			stream = laneIn[l]["in"]
		}
		seq, err := Run(scaleGraph(stream), Options{})
		if err != nil {
			t.Fatalf("lane %d sequential: %v", l, err)
		}
		requireSameResult(t, fmt.Sprintf("lane %d", l), seq, laneView(bat, l))
	}
	if bat.Lanes[2].Cycles >= bat.Lanes[1].Cycles {
		t.Errorf("short lane 2 quiesced at cycle %d, not before lane 1's %d",
			bat.Lanes[2].Cycles, bat.Lanes[1].Cycles)
	}
}

// TestBatchedLaneZeroIgnoresLaneInputs: lane 0 always consumes the
// graph-bound streams, even when LaneInputs[0] names the source.
func TestBatchedLaneZeroIgnoresLaneInputs(t *testing.T) {
	base := value.Reals(ramp(8))
	laneIn := []map[string][]value.Value{{"in": value.Reals(ramp(2))}, nil}
	bat, err := Run(scaleGraph(base), Options{Batch: 2, LaneInputs: laneIn})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bat.Outputs["out"]); got != 8 {
		t.Errorf("lane 0 produced %d values; LaneInputs[0] must be ignored (want 8)", got)
	}
}

// TestBatchedPartialResult pins the MaxCycles path at B>1: the error and
// lane 0's partial view stay byte-identical to the sequential engine, and
// every lane carries its own partial view.
func TestBatchedPartialResult(t *testing.T) {
	build := engineCases()["wide"]
	seq, seqErr := Run(build(), Options{MaxCycles: 9})
	if seqErr == nil {
		t.Fatal("sequential run unexpectedly quiesced in 9 cycles")
	}
	for _, w := range []int{1, 4} {
		bat, batErr := Run(build(), Options{MaxCycles: 9, Batch: 4, Workers: w})
		if batErr == nil {
			t.Fatalf("W=%d: batched run unexpectedly quiesced", w)
		}
		if seqErr.Error() != batErr.Error() {
			t.Errorf("W=%d: error %q, sequential %q", w, batErr, seqErr)
		}
		requireSameResult(t, fmt.Sprintf("W=%d partial top", w), seq, bat)
		for l := 0; l < 4; l++ {
			requireSameResult(t, fmt.Sprintf("W=%d partial lane %d", w, l), seq, laneView(bat, l))
		}
	}
}

// TestBatchedValidation pins the option-validation errors.
func TestBatchedValidation(t *testing.T) {
	base := value.Reals(ramp(4))
	if _, err := Run(scaleGraph(base), Options{Batch: MaxBatch + 1}); err == nil ||
		!strings.Contains(err.Error(), "lane limit") {
		t.Errorf("oversized batch: err=%v", err)
	}
	tooMany := make([]map[string][]value.Value, 3)
	if _, err := Run(scaleGraph(base), Options{Batch: 2, LaneInputs: tooMany}); err == nil ||
		!strings.Contains(err.Error(), "lane input sets") {
		t.Errorf("excess lane inputs: err=%v", err)
	}
	bad := []map[string][]value.Value{nil, {"nope": base}}
	if _, err := Run(scaleGraph(base), Options{Batch: 2, LaneInputs: bad}); err == nil ||
		!strings.Contains(err.Error(), "names no source cell") {
		t.Errorf("unknown lane input label: err=%v", err)
	}
}

// TestBatchedLaneTelemetry attaches the live progress counters to a
// batched lane-sharded run (the configuration the race detector must
// bless) and checks the per-lane blocks are populated and consistent.
func TestBatchedLaneTelemetry(t *testing.T) {
	build := engineCases()["wide"]
	seq, err := Run(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := &trace.Progress{}
	bat, err := Run(build(), Options{Batch: 8, Workers: 4, Tracer: trace.NewLive(), Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "telemetry", seq, bat)
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

// engineCases are graph builders covering every structural feature the
// engines handle: straight pipelines, reconvergence, rings with initial
// tokens, merges, gated destinations, and wide independent lanes.
func engineCases() map[string]func() *graph.Graph {
	return map[string]func() *graph.Graph{
		"fig2": func() *graph.Graph {
			g, _ := fig2(48)
			return g
		},
		"wide": func() *graph.Graph { return wideBenchGraph(6, 24) },
		"reconvergent": func() *graph.Graph {
			g := graph.New()
			src := g.AddSource("in", value.Reals(ramp(40)))
			id1 := g.Add(graph.OpID, "")
			id2 := g.Add(graph.OpID, "")
			add := g.Add(graph.OpAdd, "")
			g.Connect(src, id1, 0)
			g.Connect(id1, id2, 0)
			g.Connect(id2, add, 0)
			g.Connect(src, add, 1)
			g.Connect(add, g.AddSink("out"), 0)
			return g
		},
		"ring": func() *graph.Graph {
			n := 20
			g := graph.New()
			gate := g.Add(graph.OpTGate, "gate")
			ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: n, Suffix: []bool{false}})
			g.Connect(ctl, gate, 0)
			prev := gate
			for i := 0; i < 3; i++ {
				id := g.Add(graph.OpID, "")
				g.Connect(prev, id, 0)
				prev = id
			}
			back := g.Connect(prev, gate, 1)
			g.SetInit(back, value.R(7))
			g.Connect(gate, g.AddSink("out"), 0)
			return g
		},
		"merge-gated": func() *graph.Graph {
			g := graph.New()
			a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
			add := g.Add(graph.OpAdd, "acc")
			merge := g.Add(graph.OpMerge, "m")
			mctl := g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5})
			sink := g.AddSink("x")
			g.Connect(mctl, merge, 0)
			g.Connect(add, merge, 1)
			g.SetLiteral(merge, 2, value.I(0))
			outGate := g.AddGate(merge)
			g.Connect(g.AddCtl("outctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, outGate)
			fbGate := g.AddGate(merge)
			g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, fbGate)
			g.Connect(a, add, 0)
			g.ConnectGated(merge, fbGate, add, 1)
			g.ConnectGated(merge, outGate, sink, 0)
			return g
		},
		"fifo": func() *graph.Graph {
			g := graph.New()
			src := g.AddSource("in", value.Reals(ramp(32)))
			f := g.AddFIFO("buf", 5)
			g.Connect(src, f, 0)
			g.Connect(f, g.AddSink("out"), 0)
			return g
		},
	}
}

// requireSameResult compares every observable Result field of two runs.
func requireSameResult(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if seq.Cycles != par.Cycles {
		t.Errorf("%s: cycles %d, sequential %d", name, par.Cycles, seq.Cycles)
	}
	if !reflect.DeepEqual(seq.Firings, par.Firings) {
		t.Errorf("%s: firing counts diverge", name)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Errorf("%s: outputs diverge\nseq: %v\npar: %v", name, seq.Outputs, par.Outputs)
	}
	if !reflect.DeepEqual(seq.Arrivals, par.Arrivals) {
		t.Errorf("%s: arrival streams diverge", name)
	}
	if seq.Clean != par.Clean {
		t.Errorf("%s: clean %v, sequential %v", name, par.Clean, seq.Clean)
	}
	if !reflect.DeepEqual(seq.Stalled, par.Stalled) {
		t.Errorf("%s: stall diagnostics diverge\nseq: %v\npar: %v", name, seq.Stalled, par.Stalled)
	}
}

// recorder keeps the verbatim event stream for byte-level comparison.
type recorder struct {
	meta   trace.Meta
	events []trace.Event
}

func (r *recorder) Start(m trace.Meta) { r.meta = m }
func (r *recorder) Emit(e trace.Event) { r.events = append(r.events, e) }
