package staticpipe_test

import (
	"fmt"

	"staticpipe"
)

// Example compiles the paper's Example 1 and runs it fully pipelined.
func Example() {
	src := `
param m = 6;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)
  endall;
output A;
`
	prog, err := staticpipe.Compile(src, staticpipe.Options{})
	if err != nil {
		panic(err)
	}
	b := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	c := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	res, err := prog.Run(staticpipe.Binding{}, map[string][]staticpipe.Value{
		"B": staticpipe.Reals(b),
		"C": staticpipe.Reals(c),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("A[1] = %.2f\n", res.Outputs["A"].Elems[1].AsReal())
	fmt.Printf("II = %.1f cycles per element\n", res.II("A"))
	fmt.Printf("fully pipelined: %v\n", staticpipe.FullyPipelined(res, "A"))
	// Output:
	// A[1] = 1.00
	// II = 2.0 cycles per element
	// fully pipelined: true
}

// ExampleCompile_recurrence shows the companion-function scheme restoring
// the maximum rate on the paper's Example 2 (Theorem 3).
func ExampleCompile_recurrence() {
	src := `
param m = 40;
input A : array[real] [1, m];
input B : array[real] [1, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do if i < m then iter T := T[i: A[i]*T[i-1] + B[i]]; i := i + 1 enditer
     else T[i: A[i]*T[i-1] + B[i]] endif
  endfor;
output X;
`
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = 0.5
		b[i] = 1
	}
	inputs := map[string][]staticpipe.Value{
		"A": staticpipe.Reals(a), "B": staticpipe.Reals(b),
	}
	for _, scheme := range []struct {
		name string
		opt  staticpipe.Options
	}{
		{"todd", staticpipe.Options{ForIterScheme: staticpipe.ForIterTodd}},
		{"companion", staticpipe.Options{ForIterScheme: staticpipe.ForIterComp}},
	} {
		prog, err := staticpipe.Compile(src, scheme.opt)
		if err != nil {
			panic(err)
		}
		res, err := prog.Run(staticpipe.Binding{}, inputs)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: II = %.0f\n", scheme.name, res.II("X"))
	}
	// Output:
	// todd: II = 3
	// companion: II = 2
}
