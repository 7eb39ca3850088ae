package pe

import (
	"testing"

	"staticpipe/internal/balance"
	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// compileRun2D compiles src over [lo,hi]×[lo2,hi2] with one 2-D array "U"
// of the given shape.
func compileRun2D(t *testing.T, src string, lo, hi, lo2, hi2 int64,
	uLo, uHi, uLo2, uHi2 int64, uVals []float64, opts Options) *exec.Result {
	t.Helper()
	e, err := val.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	b := NewBuilder2(g, "i", lo, hi, "j", lo2, hi2, nil, opts)
	srcN := g.AddSource("U", value.Reals(uVals))
	b.BindArray2("U", srcN, uLo, uHi, uLo2, uHi2)
	out, err := b.CompileStream(e)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	g.Connect(out, g.AddSink("out"), 0)
	if _, err := balance.Balance(g); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoDBuilderStencil(t *testing.T) {
	// 4x5 interior of a 6x7 grid: U[i-1,j] + U[i+1,j] + i - j.
	w := int64(7)
	vals := make([]float64, 6*7)
	for i := range vals {
		vals[i] = float64(i)
	}
	res := compileRun2D(t, "U[i-1, j] + U[i+1, j] + i - j",
		1, 4, 1, 5, 0, 5, 0, 6, vals, Options{})
	got := res.Output("out")
	if len(got) != 4*5 {
		t.Fatalf("got %d values", len(got))
	}
	k := 0
	for i := int64(1); i <= 4; i++ {
		for j := int64(1); j <= 5; j++ {
			want := vals[(i-1)*w+j] + vals[(i+1)*w+j] + float64(i) - float64(j)
			if got[k].AsReal() != want {
				t.Errorf("out[%d] (i=%d,j=%d) = %v, want %v", k, i, j, got[k], want)
			}
			k++
		}
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

func TestTwoDStaticCondOnBothVars(t *testing.T) {
	vals := make([]float64, 5*5)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	res := compileRun2D(t, "if (i = 0) | (j = 0) then U[i, j] else -(U[i, j]) endif",
		0, 4, 0, 4, 0, 4, 0, 4, vals, Options{})
	got := res.Output("out")
	if len(got) != 25 {
		t.Fatalf("got %d values", len(got))
	}
	for p, v := range got {
		i, j := p/5, p%5
		want := vals[p]
		if i != 0 && j != 0 {
			want = -want
		}
		if v.AsReal() != want {
			t.Errorf("out[%d] = %v, want %v", p, v, want)
		}
	}
	if ii := res.II("out"); ii != 2 {
		t.Errorf("full-range 2-D II = %v, want 2", ii)
	}
}

func TestTwoDErrorsBuilder(t *testing.T) {
	g := graph.New()
	b := NewBuilder2(g, "i", 0, 3, "j", 0, 3, nil, Options{})
	b.BindArray2("U", g.AddSource("U", value.Reals(make([]float64, 16))), 0, 3, 0, 3)
	b.BindArray("V", g.AddSource("V", value.Reals(make([]float64, 4))), 0, 3)
	cases := []struct{ src, want string }{
		{"U[i]", "subscript count"},
		{"V[i, j]", "subscript count"},
		{"V[i]", "one-dimensional array"},
		{"U[i, j*2]", "form j±constant"},
		{"U[j, i]", "form i±constant"},
		{"U[i+1, j]", "outside"},
	}
	for _, c := range cases {
		e, err := val.ParseExpr(c.src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = b.Compile(e)
		if err == nil {
			t.Errorf("%q accepted", c.src)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.want)
		}
	}
	// 2-D reference in a 1-D builder
	b1 := NewBuilder(g, "i", 0, 3, nil, Options{})
	b1.BindArray2("U", g.AddSource("U2", value.Reals(make([]float64, 16))), 0, 3, 0, 3)
	e, _ := val.ParseExpr("U[i, i]")
	if _, err := b1.Compile(e); err == nil {
		t.Error("2-D reference in 1-D builder accepted")
	}
}

func contains(s, sub string) bool {
	return len(sub) == 0 || (len(s) >= len(sub) && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestNewBuilder2Panics(t *testing.T) {
	g := graph.New()
	for i, f := range []func(){
		func() { NewBuilder2(g, "i", 3, 0, "j", 0, 3, nil, Options{}) },
		func() { NewBuilder2(g, "i", 0, 3, "i", 0, 3, nil, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestLiteralIndexStream exercises the literal counter construction for
// the index variable in 1-D literal-control mode.
func TestLiteralIndexStream(t *testing.T) {
	e, err := val.ParseExpr("A[i] + i")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	b := NewBuilder(g, "i", 2, 9, nil, Options{LiteralControl: true})
	b.BindArray("A", g.AddSource("A", value.Reals(make([]float64, 12))), 0, 11)
	out, err := b.CompileStream(e)
	if err != nil {
		t.Fatal(err)
	}
	g.Connect(out, g.AddSink("out"), 0)
	if _, err := balance.Balance(g); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	if len(got) != 8 {
		t.Fatalf("got %d values", len(got))
	}
	for k, v := range got {
		if v.AsReal() != float64(k+2) {
			t.Errorf("out[%d] = %v, want %d", k, v, k+2)
		}
	}
	if n := res.Graph().ComputeStats().ByOp[graph.OpCtlGen]; n != 0 {
		t.Errorf("literal mode emitted %d generator cells", n)
	}
}
