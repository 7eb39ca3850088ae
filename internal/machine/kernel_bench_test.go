package machine

import (
	"fmt"
	"testing"
)

// BenchmarkKernelCyclesPerSec measures the packet-level kernel's machine-
// cycle throughput on the wide Fig 2 workload, for both routing-network
// models, reported as a cycles/sec metric.
func BenchmarkKernelCyclesPerSec(b *testing.B) {
	for _, net := range []NetworkKind{Crossbar, Butterfly} {
		b.Run(fmt.Sprint(net), func(b *testing.B) {
			totalCycles := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := wideGraph(8, 128)
				b.StartTimer()
				res, err := Run(g, Config{PEs: 8, FUs: 4, AMs: 4, Network: net})
				if err != nil {
					b.Fatal(err)
				}
				totalCycles += res.Cycles
			}
			b.ReportMetric(float64(totalCycles)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}
