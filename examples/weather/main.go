// Weather: a multi-block pipe-structured physics kernel in the spirit of
// the application codes the paper's authors analyzed ("Modeling the
// Weather with a Data Flow Supercomputer" [7]): a 1-D advection–diffusion
// time step built from five blocks — diffusion, upwind flux, limiter, an
// implicit-sweep recurrence, and the field update — compiled into one
// fully pipelined instruction graph (Theorem 4) and marched for several
// time steps, then profiled on the packet-level machine simulator.
//
//	go run ./examples/weather
package main

import (
	"fmt"
	"log"
	"math"

	"staticpipe"
	"staticpipe/internal/progs"
)

func main() {
	m := 120
	p := progs.Weather(m)
	prog, err := staticpipe.Compile(p.Source, staticpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flow dependency graph blocks:")
	fmt.Print(prog.Report())

	// March the field for several time steps: each step's output V becomes
	// the next step's U (boundary cells re-padded periodically).
	field := make([]float64, m+2)
	diffusivity := make([]float64, m+2)
	for i := range field {
		field[i] = math.Sin(float64(i) * 1.7)
		diffusivity[i] = 0.1 + 0.05*math.Cos(float64(i))
	}
	for step := 1; step <= 5; step++ {
		inputs := map[string][]staticpipe.Value{
			"U": staticpipe.Reals(field),
			"K": staticpipe.Reals(diffusivity),
		}
		res, err := prog.Run(staticpipe.Binding{}, inputs)
		if err != nil {
			log.Fatal(err)
		}
		v := staticpipe.Floats(res.Outputs["V"].Elems)
		next := make([]float64, m+2)
		copy(next[1:], v)
		next[0], next[m+1] = v[m-1], v[0] // periodic boundary
		field = next
		fmt.Printf("step %d: II = %.3f cycles/element, energy = %.4f\n",
			step, res.II("V"), energy(v))
	}

	// Profile one step on the packet-level machine.
	inputs := map[string][]staticpipe.Value{
		"U": staticpipe.Reals(field),
		"K": staticpipe.Reals(diffusivity),
	}
	fmt.Println("\npacket-level machine (butterfly network):")
	for _, pes := range []int{2, 8, 32} {
		res, err := staticpipe.RunMachine(prog, inputs, staticpipe.MachineConfig{
			PEs: pes, AMs: 4, Network: staticpipe.NetButterfly,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  PEs=%2d: %5d cycles, %6d packets (AM share %.3f), PE utilization %.1f%%\n",
			pes, res.Cycles, res.TotalPackets, res.AMFraction(), 100*res.Utilization())
	}
}

func energy(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	return sum / float64(len(xs))
}
