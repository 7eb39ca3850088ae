// Quickstart: compile the paper's Example 1 — a boundary-conditioned
// smoothing forall — to a fully pipelined static dataflow instruction
// graph, run it on the firing-rule simulator, and confirm the headline
// result: one array element per two instruction times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"staticpipe"
)

const src = `
param m = 30;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]                    % one element per index
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)                    % the accumulation part
  endall;
output A;
`

func main() {
	prog, err := staticpipe.Compile(src, staticpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compile report:")
	fmt.Print(prog.Report())

	m := 30
	b := make([]float64, m+2)
	c := make([]float64, m+2)
	for i := range b {
		b[i] = 1 + float64(i%3)/4
		c[i] = math.Sin(float64(i) / 4)
	}
	inputs := map[string][]staticpipe.Value{
		"B": staticpipe.Reals(b),
		"C": staticpipe.Reals(c),
	}

	res, err := prog.Run(staticpipe.Binding{}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nA[0..7] = %.4f\n", staticpipe.Floats(res.Outputs["A"].Elems[:8]))
	fmt.Printf("initiation interval: %.3f cycles per element (2.0 = maximum rate)\n", res.II("A"))
	fmt.Printf("fully pipelined: %v\n", staticpipe.FullyPipelined(res, "A"))

	// Cross-check the compiled graph against the reference interpreter.
	if err := prog.Validate(inputs, 1e-9); err != nil {
		log.Fatal(err)
	}
	fmt.Println("outputs verified against the reference interpreter")
}
