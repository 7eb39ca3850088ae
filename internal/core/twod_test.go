package core

import (
	"math"
	"strings"
	"testing"

	"staticpipe/internal/forall"
	"staticpipe/internal/value"
)

// laplaceSrc is a two-dimensional five-point stencil — the §9 "extension …
// to array values of multiple dimension", compiled over row-major element
// streams.
const laplaceSrc = `
param m = 10;
param n = 14;
input U : array2[real] [0, m+1][0, n+1];
L : array2[real] :=
  forall i in [1, m], j in [1, n]
  construct U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1] - 4.*U[i, j]
  endall;
output L;
`

func grid(m, n int, f func(i, j int) float64) []value.Value {
	out := make([]value.Value, 0, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out = append(out, value.R(f(i, j)))
		}
	}
	return out
}

func TestTwoDStencil(t *testing.T) {
	u, err := CompileArtifact(laplaceSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, n := 10, 14
	inputs := map[string][]value.Value{
		"U": grid(m+2, n+2, func(i, j int) float64 {
			return math.Sin(float64(i)/3) * math.Cos(float64(j)/2)
		}),
	}
	if err := u.Validate(inputs, 1e-12); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	L := res.Outputs["L"]
	if L.W != n || L.Lo != 1 || L.Lo2 != 1 || len(L.Elems) != m*n {
		t.Fatalf("L shape: lo=%d lo2=%d w=%d len=%d", L.Lo, L.Lo2, L.W, len(L.Elems))
	}
	// Spot-check one interior element against the stencil formula.
	at := func(i, j int) float64 {
		v, err := L.At2(int64(i), int64(j))
		if err != nil {
			t.Fatal(err)
		}
		return v.AsReal()
	}
	f := func(i, j int) float64 { return math.Sin(float64(i)/3) * math.Cos(float64(j)/2) }
	want := f(3, 5) + f(5, 5) + f(4, 4) + f(4, 6) - 4*f(4, 5)
	if got := at(4, 5); math.Abs(got-want) > 1e-12 {
		t.Errorf("L[4,5] = %v, want %v", got, want)
	}
	// Interior iteration over a padded grid is input-bound: the pipeline
	// consumes (m+2)(n+2) elements to emit m·n, so the per-output interval
	// is 2·(m+2)(n+2)/(m·n); it must not exceed that by more than the
	// row-boundary jitter.
	bound := 2 * float64((m+2)*(n+2)) / float64(m*n)
	if ii := res.II("L"); ii > bound+0.1 {
		t.Errorf("II = %v, want ≤ %v (input-bound stencil)", ii, bound)
	}
	if !res.Exec.Clean {
		t.Errorf("not clean: %v", res.Exec.Stalled)
	}
}

// TestTwoDFullRange iterates the whole grid (no boundary padding): the
// stream is consumed 1:1 and the pipeline reaches the maximum rate.
func TestTwoDFullRange(t *testing.T) {
	src := `
param m = 8;
param n = 9;
input U : array2[real] [1, m][1, n];
V : array2[real] :=
  forall i in [1, m], j in [1, n]
  construct 2.*U[i, j] + 1.
  endall;
output V;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]value.Value{
		"U": grid(8, 9, func(i, j int) float64 { return float64(i*10 + j) }),
	}
	if err := u.Validate(inputs, 0); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("V"); ii != 2 {
		t.Errorf("II = %v, want 2", ii)
	}
}

// TestTwoDStaticBoundary exercises compile-time conditions over both index
// variables — the 2-D analogue of Example 1's boundary handling.
func TestTwoDStaticBoundary(t *testing.T) {
	src := `
param m = 6;
param n = 7;
input U : array2[real] [0, m+1][0, n+1];
A : array2[real] :=
  forall i in [0, m+1], j in [0, n+1]
  construct if (i = 0) | (i = m+1) | (j = 0) | (j = n+1)
            then U[i, j]
            else 0.25 * (U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1])
            endif
  endall;
output A;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]value.Value{
		"U": grid(8, 9, func(i, j int) float64 { return float64(i) - float64(j)/2 }),
	}
	if err := u.Validate(inputs, 1e-12); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Full-range iteration: maximum rate.
	if ii := res.II("A"); ii != 2 {
		t.Errorf("II = %v, want 2", ii)
	}
}

// TestTwoDComposition chains two 2-D blocks (Theorem 4 in two dimensions).
func TestTwoDComposition(t *testing.T) {
	src := `
param m = 6;
param n = 6;
input U : array2[real] [0, m+1][0, n+1];
L : array2[real] :=
  forall i in [1, m], j in [1, n]
  construct U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1] - 4.*U[i, j]
  endall;
V : array2[real] :=
  forall i in [1, m], j in [1, n]
  construct L[i, j] * 0.25
  endall;
output V;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]value.Value{
		"U": grid(8, 8, func(i, j int) float64 { return float64(i*i + j) }),
	}
	if err := u.Validate(inputs, 1e-12); err != nil {
		t.Fatal(err)
	}
}

// TestTwoDIndexVarsAsValues uses i and j as scalar streams.
func TestTwoDIndexVarsAsValues(t *testing.T) {
	src := `
param m = 4;
param n = 5;
input U : array2[real] [1, m][1, n];
A : array2[real] :=
  forall i in [1, m], j in [1, n]
  construct U[i, j] + i * 100 + j
  endall;
output A;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]value.Value{
		"U": grid(4, 5, func(i, j int) float64 { return 0.5 }),
	}
	if err := u.Validate(inputs, 0); err != nil {
		t.Fatal(err)
	}
}

// TestTwoDParallelScheme checks the parallel scheme in two dimensions.
func TestTwoDParallelScheme(t *testing.T) {
	u, err := CompileArtifact(laplaceSrc, Options{ForallScheme: forall.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]value.Value{
		"U": grid(12, 16, func(i, j int) float64 { return float64(i + j) }),
	}
	if err := u.Validate(inputs, 1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestTwoDErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"wrong subscripts", `
input U : array2[real] [0, 3][0, 3];
A : array[real] := forall i in [0, 3] construct U[i] endall;
output A;`, "subscripts"},
		{"vector as 2d", `
input U : array[real] [0, 3];
A : array2[real] := forall i in [0, 3], j in [0, 3] construct U[i, j] endall;
output A;`, "subscripts"},
		{"vector in 2d forall", `
input U : array[real] [0, 3];
A : array2[real] := forall i in [0, 3], j in [0, 3] construct U[i] endall;
output A;`, "one-dimensional array"},
		{"2d ref in 1d forall", `
input U : array2[real] [0, 3][0, 3];
A : array[real] := forall i in [0, 3] construct U[i, i] endall;
output A;`, ""},
		{"out of range", `
input U : array2[real] [0, 3][0, 3];
A : array2[real] := forall i in [0, 3], j in [0, 3] construct U[i+1, j] endall;
output A;`, "outside"},
		{"foriter 2d accum", `
input U : array2[real] [1, 3][1, 3];
A : array2[real] :=
  for i : integer := 1; T : array2[real] := [0: 0.]
  do if i < 3 then iter T := T[i: 1.]; i := i+1 enditer else T endif endfor;
output A;`, ""},
		{"empty second range", `
input U : array2[real] [0, 3][3, 0];
A : array2[real] := forall i in [0, 3], j in [0, 3] construct U[i, j] endall;
output A;`, "empty"},
	}
	for _, c := range cases {
		_, err := CompileArtifact(c.src, Options{})
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
