// Jacobi2D: the §9 multi-dimensional extension in action — a 2-D Laplace
// solver whose five-point Jacobi update compiles to a single pipelined
// instruction graph over row-major element streams. Each sweep streams the
// whole (m+2)×(n+2) grid through the dataflow pipeline; boundary values are
// carried through by the compile-time boundary condition, exactly like
// Example 1's 1-D boundary handling.
//
//	go run ./examples/jacobi2d
package main

import (
	"fmt"
	"log"
	"math"

	"staticpipe"
)

const src = `
param m = 15;
param n = 15;
input U : array2[real] [0, m+1][0, n+1];
V : array2[real] :=
  forall i in [0, m+1], j in [0, n+1]
  construct if (i = 0) | (i = m+1) | (j = 0) | (j = n+1)
            then U[i, j]        % Dirichlet boundary carried through
            else 0.25 * (U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1])
            endif
  endall;
output V;
`

func main() {
	prog, err := staticpipe.Compile(src, staticpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(prog.Report())

	m, n := 15, 15
	// boundary: V = 1 on the top edge, 0 elsewhere; interior starts at 0.
	grid := make([]float64, (m+2)*(n+2))
	for j := 0; j <= n+1; j++ {
		grid[j] = 1
	}
	pack := func(g []float64) map[string][]staticpipe.Value {
		return map[string][]staticpipe.Value{"U": staticpipe.Reals(g)}
	}

	var res *staticpipe.RunResult
	for sweep := 1; sweep <= 2000; sweep++ {
		res, err = prog.Run(staticpipe.Binding{}, pack(grid))
		if err != nil {
			log.Fatal(err)
		}
		next := staticpipe.Floats(res.Outputs["V"].Elems)
		delta := 0.0
		for i := range next {
			delta = math.Max(delta, math.Abs(next[i]-grid[i]))
		}
		grid = next
		if sweep%300 == 0 || delta < 1e-5 {
			fmt.Printf("sweep %4d: max change %.6f, II = %.3f cycles/element\n",
				sweep, delta, res.II("V"))
		}
		if delta < 1e-5 {
			break
		}
	}

	// The converged potential at the grid centre of a top-heated square
	// plate: the analytic series gives ≈ 0.25 at the midpoint.
	centre := grid[(m/2+1)*(n+2)+(n/2+1)]
	fmt.Printf("centre potential: %.4f (analytic midpoint value 0.25)\n", centre)
	if err := prog.Validate(pack(grid), 1e-12); err != nil {
		log.Fatal(err)
	}
	fmt.Println("final sweep verified against the reference interpreter")
}
