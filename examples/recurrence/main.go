// Recurrence: the paper's Example 2 — the first-order linear recurrence
// x_i = A_i·x_{i-1} + B_i — compiled three ways:
//
//  1. Todd's feedback scheme (Fig 7): a 3-cell loop, rate 1/3;
//
//  2. the companion-function scheme (Fig 8, Theorem 3): the loop rewritten
//     x_i = F(c_i, x_{i-2}) with c_i = G(a_i, a_{i-1}), rate 1/2 (maximum);
//
//  3. the §9 delay-for-rate construction: many independent recurrences
//     interleaved through one FIFO-extended loop at the maximum rate.
//
//     go run ./examples/recurrence
package main

import (
	"fmt"
	"log"
	"math"

	"staticpipe"
	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/recurrence"
	"staticpipe/internal/value"
)

const src = `
param m = 500;
input A : array[real] [1, m];
input B : array[real] [1, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
output X;
`

func main() {
	m := 500
	a := make([]float64, m)
	b := make([]float64, m)
	for i := range a {
		a[i] = 0.3 + 0.6*math.Sin(float64(i)/7)
		b[i] = float64(i%9) - 4
	}
	inputs := map[string][]staticpipe.Value{
		"A": staticpipe.Reals(a),
		"B": staticpipe.Reals(b),
	}

	fmt.Println("x_i = A_i*x_{i-1} + B_i over", m, "elements")
	for _, cfg := range []struct {
		name string
		opt  staticpipe.Options
	}{
		{"Todd (Fig 7)", staticpipe.Options{ForIterScheme: staticpipe.ForIterTodd}},
		{"companion (Fig 8)", staticpipe.Options{ForIterScheme: staticpipe.ForIterComp}},
	} {
		prog, err := staticpipe.Compile(src, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		res, err := prog.Run(staticpipe.Binding{}, inputs)
		if err != nil {
			log.Fatal(err)
		}
		if err := prog.Validate(inputs, 1e-9); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s II = %.3f cycles/element, %5d cycles, x_%d = %.6f\n",
			cfg.name, res.II("X"), res.Exec.Cycles, m,
			res.Outputs["X"].Elems[m].AsReal())
	}

	// The §9 construction: 8 independent recurrences share one loop.
	rows, n := 8, m/8
	g := graph.New()
	av := make([]value.Value, rows*n)
	bv := make([]value.Value, rows*n)
	params := make([][]recurrence.Param, rows)
	for r := range params {
		params[r] = make([]recurrence.Param, n)
	}
	for i := 0; i < n; i++ {
		for r := 0; r < rows; r++ {
			p := recurrence.Param{A: 0.5 + float64(r)/20, B: float64((i+r)%5) - 2}
			params[r][i] = p
			av[i*rows+r] = value.R(p.A)
			bv[i*rows+r] = value.R(p.B)
		}
	}
	out, err := foriter.InterleavedLinear(g, "x", rows, n,
		g.AddSource("a", av), g.AddSource("b", bv),
		value.Reals(make([]float64, rows)))
	if err != nil {
		log.Fatal(err)
	}
	g.Connect(out, g.AddSink("x"), 0)
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-18s II = %.3f cycles/element (%d rows, FIFO %d stages)\n",
		"interleaved (§9)", res.II("x"), rows, 2*rows-3)

	// Verify one interleaved row against the sequential reference.
	want := recurrence.Sequential(0, params[3])
	got := res.Output("x")[3+rows*n].AsReal() // x_n of row 3
	fmt.Printf("  row 3 final: interleaved %.6f, sequential %.6f\n", got, want[n])
}
