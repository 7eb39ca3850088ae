package exec

import (
	"math"
	"testing"
)

// TestSteadyIIWindow pins the II measurement window: middle half with ≥8
// samples, fill-prefix skip with 4–7, full span below that. The short
// streams use a ramping arrival pattern (the fill transient of a deep
// pipeline: a large first gap, then steady spacing) that the old full-span
// measurement misreported.
func TestSteadyIIWindow(t *testing.T) {
	cases := []struct {
		name string
		arr  []int
		want float64
	}{
		{"empty", nil, 0},
		{"single", []int{5}, 0},
		// 2–3 samples: nothing to trim, full span.
		{"two", []int{10, 14}, 4},
		{"three", []int{10, 14, 18}, 4},
		// 4–7 samples: skip the fill prefix (first quarter), keep the tail.
		// Fill gap of 10 cycles, steady II of 2 afterwards.
		{"four-with-fill", []int{0, 10, 12, 14}, 2},
		{"seven-with-fill", []int{0, 10, 12, 14, 16, 18, 20}, 2},
		// ≥8 samples: middle half, excluding fill and drain transients.
		{"eight-with-fill-and-drain", []int{0, 10, 12, 14, 16, 18, 20, 30}, 2},
		{"steady-16", func() []int {
			cycles := make([]int, 16)
			for i := range cycles {
				cycles[i] = 100 + 2*i
			}
			return cycles
		}(), 2},
	}
	for _, tc := range cases {
		if got := SteadyII(tc.arr); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: SteadyII = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFullyPipelinedShortStream checks the consequence of the window fix:
// a fully pipelined sink with a short stream and a deep fill is recognized
// as fully pipelined instead of being penalized for the fill gap.
func TestFullyPipelinedShortStream(t *testing.T) {
	r := &Result{Arrivals: map[string][]int{
		"out": []int{0, 20, 22, 24, 26},
	}}
	if ii := r.II("out"); math.Abs(ii-2) > 1e-12 {
		t.Fatalf("II = %v, want 2", ii)
	}
	if !r.FullyPipelined("out") {
		t.Error("short fully pipelined stream not recognized")
	}
}
