package exec

import (
	"fmt"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// wideBenchGraph builds w independent 16-stage identity pipelines fed by
// n-value streams — wide enough that the per-cycle work dominates setup.
func wideBenchGraph(w, n int) *graph.Graph {
	g := graph.New()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	for k := 0; k < w; k++ {
		prev := g.AddSource("in", value.Reals(vals))
		for s := 0; s < 16; s++ {
			id := g.Add(graph.OpID, "")
			g.Connect(prev, id, 0)
			prev = id
		}
		g.Connect(prev, g.AddSink("out"), 0)
	}
	// distinct sink labels
	i := 0
	for _, nd := range g.Nodes() {
		if nd.Op == graph.OpSink {
			nd.Label = "out" + string(rune('a'+i))
			i++
		}
		if nd.Op == graph.OpSource {
			nd.Label = "in" + string(rune('a'+i))
		}
	}
	return g
}

// BenchmarkKernelCyclesPerSec measures the event-driven firing-rule
// kernel's cycle throughput on a wide pipelined workload, reported as a
// cycles/sec metric.
func BenchmarkKernelCyclesPerSec(b *testing.B) {
	totalCycles := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := wideBenchGraph(8, 256)
		b.StartTimer()
		res, err := Run(g, Options{})
		if err != nil {
			b.Fatal(err)
		}
		totalCycles += res.Cycles
	}
	b.ReportMetric(float64(totalCycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkBatchedCyclesPerSec measures aggregate lane-cycle throughput of
// the batched engine: B lanes advancing through one compiled graph count B
// lane-cycles per simulated cycle, so the metric divided by the B=1 rate
// is the amortization factor the E20 experiment gates on.
func BenchmarkBatchedCyclesPerSec(b *testing.B) {
	for _, bb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("B%d", bb), func(b *testing.B) {
			totalLaneCycles := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := wideBenchGraph(8, 256)
				b.StartTimer()
				res, err := Run(g, Options{Batch: bb})
				if err != nil {
					b.Fatal(err)
				}
				if bb > 1 {
					for _, lr := range res.Lanes {
						totalLaneCycles += lr.Cycles
					}
				} else {
					totalLaneCycles += res.Cycles
				}
			}
			b.ReportMetric(float64(totalLaneCycles)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}
