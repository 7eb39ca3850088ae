// Smoothing: the Fig 4 kernel — 0.25*(C[i-1] + 2*C[i] + C[i+1]) — applied
// repeatedly to a noisy signal, demonstrating why the paper's balancing
// matters: the same graph without skew FIFOs computes the same values at
// 2.5x lower throughput.
//
//	go run ./examples/smoothing
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"staticpipe"
)

const kernel = `
param m = 200;
input C : array[real] [0, m+1];
S : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall;
output S;
`

func main() {
	balanced, err := staticpipe.Compile(kernel, staticpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	unbalanced, err := staticpipe.Compile(kernel, staticpipe.Options{Passes: "none"})
	if err != nil {
		log.Fatal(err)
	}

	// a noisy signal
	m := 200
	rng := rand.New(rand.NewSource(7))
	signal := make([]float64, m+2)
	for i := range signal {
		signal[i] = math.Sin(2*math.Pi*float64(i)/40) + 0.4*(rng.Float64()-0.5)
	}

	// Three smoothing passes: each pass's output becomes the next pass's
	// interior, with the boundary elements re-padded.
	cur := signal
	for pass := 1; pass <= 3; pass++ {
		inputs := map[string][]staticpipe.Value{"C": staticpipe.Reals(cur)}
		res, err := balanced.Run(staticpipe.Binding{}, inputs)
		if err != nil {
			log.Fatal(err)
		}
		smoothed := staticpipe.Floats(res.Outputs["S"].Elems)
		fmt.Printf("pass %d: II = %.3f cycles/element, %d cycles total, roughness %.4f -> %.4f\n",
			pass, res.II("S"), res.Exec.Cycles, roughness(cur[1:m+1]), roughness(smoothed))
		next := make([]float64, m+2)
		next[0], next[m+1] = smoothed[0], smoothed[m-1]
		copy(next[1:], smoothed)
		cur = next
	}

	// The unbalanced graph: same values, throttled pipeline.
	inputs := map[string][]staticpipe.Value{"C": staticpipe.Reals(signal)}
	rb, err := balanced.Run(staticpipe.Binding{}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	ru, err := unbalanced.Run(staticpipe.Binding{}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbalanced:   II = %.3f (%d cycles)\n", rb.II("S"), rb.Exec.Cycles)
	fmt.Printf("unbalanced: II = %.3f (%d cycles)\n", ru.II("S"), ru.Exec.Cycles)
	same := true
	for i, v := range rb.Outputs["S"].Elems {
		if v != ru.Outputs["S"].Elems[i] {
			same = false
		}
	}
	fmt.Printf("identical results: %v — balancing changes timing, never values\n", same)
}

// roughness is the mean squared second difference — a simple noise score.
func roughness(xs []float64) float64 {
	var sum float64
	for i := 1; i < len(xs)-1; i++ {
		d := xs[i-1] - 2*xs[i] + xs[i+1]
		sum += d * d
	}
	return sum / float64(len(xs)-2)
}
