package exec

import (
	"reflect"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Tracing must be strictly passive: the same graph run with and without a
// tracer attached produces identical cycle counts, firing counts, outputs,
// and arrival times.
func TestTracingZeroPerturbation(t *testing.T) {
	build := func() *graph.Graph {
		// An unbalanced reconvergent graph, so stall classification paths
		// (operand-wait and ack-wait) are both exercised.
		g := graph.New()
		vals := make([]float64, 96)
		for i := range vals {
			vals[i] = float64(i) * 0.25
		}
		src := g.AddSource("in", value.Reals(vals))
		id1 := g.Add(graph.OpID, "")
		id2 := g.Add(graph.OpID, "")
		add := g.Add(graph.OpAdd, "")
		g.Connect(src, id1, 0)
		g.Connect(id1, id2, 0)
		g.Connect(id2, add, 0)
		g.Connect(src, add, 1)
		g.Connect(add, g.AddSink("out"), 0)
		return g
	}

	plain, err := Run(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Attach the full live-telemetry stack: a concurrent-snapshot sink, the
	// plain aggregator, a ring, and a progress counter. None of it may
	// perturb the simulation.
	tr := trace.Multi{trace.NewLive(), trace.NewMetrics(), trace.NewRing(64)}
	prog := &trace.Progress{}
	traced, err := Run(build(), Options{Tracer: tr, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Cycle.Load(); got != int64(traced.Cycles) {
		t.Errorf("progress cycle = %d, want final cycle %d", got, traced.Cycles)
	}

	if plain.Cycles != traced.Cycles {
		t.Errorf("cycles: %d with nil tracer, %d traced", plain.Cycles, traced.Cycles)
	}
	if !reflect.DeepEqual(plain.Firings, traced.Firings) {
		t.Errorf("firing counts diverge:\nnil:    %v\ntraced: %v", plain.Firings, traced.Firings)
	}
	if !reflect.DeepEqual(plain.Outputs, traced.Outputs) {
		t.Errorf("outputs diverge")
	}
	if !reflect.DeepEqual(plain.Arrivals, traced.Arrivals) {
		t.Errorf("arrival times diverge")
	}
	if plain.Clean != traced.Clean {
		t.Errorf("clean: %v vs %v", plain.Clean, traced.Clean)
	}
}

// The metrics recorded by the tracer must agree with the simulator's own
// firing counts.
func TestTracingMatchesFirings(t *testing.T) {
	g, _ := fig2(32)
	m := trace.NewMetrics()
	res, err := Run(g, Options{Tracer: m})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range res.Firings {
		if id >= len(m.Cells) {
			if want != 0 {
				t.Fatalf("cell %d fired %d times but has no metrics", id, want)
			}
			continue
		}
		if got := m.Cells[id].Firings; got != int64(want) {
			t.Errorf("cell %s: tracer saw %d firings, simulator counted %d",
				res.Graph().Node(graph.NodeID(id)).Name(), got, want)
		}
	}
}

func benchGraph(n int) *graph.Graph {
	g := graph.New()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	prev := g.AddSource("in", value.Reals(vals))
	for s := 0; s < 16; s++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, g.AddSink("out"), 0)
	return g
}

// BenchmarkRunNilTracer is the disabled-tracing fast path: the only cost of
// the instrumentation is a nil check per potential event. Compare against
// BenchmarkRunMetricsTracer to see the enabled cost.
func BenchmarkRunNilTracer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := benchGraph(256)
		b.StartTimer()
		if _, err := Run(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunMetricsTracer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := benchGraph(256)
		b.StartTimer()
		if _, err := Run(g, Options{Tracer: trace.NewMetrics()}); err != nil {
			b.Fatal(err)
		}
	}
}
