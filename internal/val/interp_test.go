package val

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

func mustCheck(t *testing.T, src string) *Checked {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInterpExample1(t *testing.T) {
	c := mustCheck(t, example1)
	m := 10
	n := m + 2
	B := make([]float64, n)
	C := make([]float64, n)
	for i := range B {
		B[i] = float64(i) + 1
		C[i] = math.Sin(float64(i))
	}
	out, err := Interp(c, map[string][]value.Value{
		"B": value.Reals(B),
		"C": value.Reals(C),
	})
	if err != nil {
		t.Fatal(err)
	}
	A := out["A"]
	if A == nil || A.Lo != 0 || len(A.Elems) != n {
		t.Fatalf("A = %+v", A)
	}
	for i := 0; i < n; i++ {
		var p float64
		if i == 0 || i == m+1 {
			p = C[i]
		} else {
			p = 0.25 * (C[i-1] + 2*C[i] + C[i+1])
		}
		want := B[i] * (p * p)
		if got := A.Elems[i].AsReal(); got != want {
			t.Errorf("A[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestInterpExample2(t *testing.T) {
	c := mustCheck(t, example2)
	m := 10
	A := make([]float64, m)
	B := make([]float64, m)
	for i := range A {
		A[i] = 0.5 + float64(i)/20
		B[i] = float64(i) - 3
	}
	out, err := Interp(c, map[string][]value.Value{
		"A": value.Reals(A),
		"B": value.Reals(B),
	})
	if err != nil {
		t.Fatal(err)
	}
	X := out["X"]
	if X.Lo != 0 || len(X.Elems) != m+1 {
		t.Fatalf("X range [%d..], %d elems", X.Lo, len(X.Elems))
	}
	// x_0 = 0; x_i = A_i x_{i-1} + B_i  (A,B indexed 1..m)
	want := make([]float64, m+1)
	for i := 1; i <= m; i++ {
		want[i] = A[i-1]*want[i-1] + B[i-1]
	}
	for i := range want {
		if got := X.Elems[i].AsReal(); got != want[i] {
			t.Errorf("X[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestInterpPipeline(t *testing.T) {
	// Example 1 feeding a summation for-iter: checks block chaining.
	src := `
param m = 4;
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    construct 2. * C[i]
  endall;
S : array[real] :=
  for i : integer := 0; T : array[real] := [0: 0.]
  do
    if i <= m then iter T := T[i+1: T[i] + A[i]]; i := i + 1 enditer
    else T endif
  endfor;
output S;
`
	c := mustCheck(t, src)
	C := []float64{1, 2, 3, 4, 5, 6}
	out, err := Interp(c, map[string][]value.Value{"C": value.Reals(C)})
	if err != nil {
		t.Fatal(err)
	}
	S := out["S"]
	// S[0]=0, S[k+1] = S[k] + 2*C[k] for k=0..m
	want := []float64{0, 2, 6, 12, 20, 30}
	if len(S.Elems) != len(want) {
		t.Fatalf("S has %d elems, want %d", len(S.Elems), len(want))
	}
	for i := range want {
		if got := S.Elems[i].AsReal(); got != want[i] {
			t.Errorf("S[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestInterpErrors(t *testing.T) {
	c := mustCheck(t, example1)
	// missing input
	if _, err := Interp(c, map[string][]value.Value{"B": value.Reals(make([]float64, 12))}); err == nil {
		t.Error("missing input accepted")
	}
	// wrong length
	if _, err := Interp(c, map[string][]value.Value{
		"B": value.Reals(make([]float64, 12)),
		"C": value.Reals(make([]float64, 3)),
	}); err == nil {
		t.Error("short input accepted")
	}
}

func TestInterpIndexOutOfRange(t *testing.T) {
	src := `
input C : array[real] [0, 3];
A : array[real] := forall i in [0, 3] construct C[i+2] endall;
output A;
`
	c := mustCheck(t, src)
	_, err := Interp(c, map[string][]value.Value{"C": value.Reals([]float64{1, 2, 3, 4})})
	if err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestInterpNonTermination(t *testing.T) {
	src := `
A : array[real] :=
  for i : integer := 0; T : array[real] := [0: 0.]
  do
    if i < 0 then T else iter T := T enditer endif
  endfor;
output A;
`
	// loop never takes the terminating arm — cap the guard for the test.
	c := mustCheck(t, src)
	old := maxIterations
	maxIterations = 500
	defer func() { maxIterations = old }()
	_, err := Interp(c, nil)
	if err == nil {
		t.Error("non-terminating loop accepted")
	}
}

func TestInterpMinMaxAbsIf(t *testing.T) {
	src := `
input C : array[real] [1, 4];
A : array[real] :=
  forall i in [1, 4]
    construct if C[i] > 2. then min(C[i], 3.5) else max(abs(C[i]), 1.) endif
  endall;
output A;
`
	c := mustCheck(t, src)
	out, err := Interp(c, map[string][]value.Value{"C": value.Reals([]float64{-5, 2, 3, 4})})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, 3, 3.5}
	for i, w := range want {
		if got := out["A"].Elems[i].AsReal(); got != w {
			t.Errorf("A[%d] = %v, want %v", i+1, got, w)
		}
	}
}

func TestArrayVal(t *testing.T) {
	a := &ArrayVal{Lo: 2, Elems: value.Reals([]float64{10, 20})}
	if a.Hi() != 3 {
		t.Errorf("Hi = %d", a.Hi())
	}
	v, err := a.At(3)
	if err != nil || v.AsReal() != 20 {
		t.Errorf("At(3) = %v, %v", v, err)
	}
	if _, err := a.At(4); err == nil {
		t.Error("out of range accepted")
	}
}

func ints(a *ArrayVal) []int64 {
	out := make([]int64, len(a.Elems))
	for k, v := range a.Elems {
		out[k] = v.AsInt()
	}
	return out
}

// TestAppendKeepsValuesIndependent checks that appends which share a
// backing array never change what another value reads: two appends to
// one array value give two arrays, and a caller's slice is never written.
func TestAppendKeepsValuesIndependent(t *testing.T) {
	in := make([]value.Value, 1, 8)
	in[0] = value.I(1)
	a := &ArrayVal{Lo: 1, Elems: in}
	b := appendElem(a, value.I(2))
	c := appendElem(b, value.I(3))
	d := appendElem(b, value.I(4))
	e := appendElem(c, value.I(5))
	f := appendElem(c, value.I(6))
	for _, x := range []struct {
		name string
		a    *ArrayVal
		want []int64
	}{
		{"a", a, []int64{1}}, {"b", b, []int64{1, 2}}, {"c", c, []int64{1, 2, 3}},
		{"d", d, []int64{1, 2, 4}}, {"e", e, []int64{1, 2, 3, 5}}, {"f", f, []int64{1, 2, 3, 6}},
	} {
		if got := ints(x.a); !slices.Equal(got, x.want) {
			t.Errorf("%s = %v, want %v", x.name, got, x.want)
		}
	}
	if v := in[:2][1]; v != (value.Value{}) {
		t.Errorf("an append wrote %v past the caller's slice", v)
	}
}

// TestInterpOutputsCapped checks that an output built by appends reaches
// the caller without spare capacity: an append by the caller cannot write
// into a backing array the interpreter shared.
func TestInterpOutputsCapped(t *testing.T) {
	p := progs.Example2(64)
	out, err := Interp(mustCheck(t, p.Source), p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	x := out[p.Output]
	if len(x.Elems) != 65 || cap(x.Elems) != len(x.Elems) || x.tail != nil {
		t.Errorf("output has %d elements, capacity %d, tail counter %v", len(x.Elems), cap(x.Elems), x.tail)
	}
}

// TestInterpForIterLinear checks that a for-iter's appends cost linear
// space: Example 2 at 4096 elements allocates at most 6 times what it does
// at 1024 (copying the array on every append made it 14.8 times).
func TestInterpForIterLinear(t *testing.T) {
	var bytes [2]uint64
	for k, n := range []int{1024, 4096} {
		p := progs.Example2(n)
		c := mustCheck(t, p.Source)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Interp(c, p.Inputs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes[k] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("Example 2: %d bytes at 1024, %d at 4096", bytes[0], bytes[1])
	if bytes[1] > 6*bytes[0] {
		t.Errorf("Example 2 allocates %d bytes at 4096 elements, more than 6 × %d at 1024", bytes[1], bytes[0])
	}
}
