package pipestruct

import (
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/forall"
	"staticpipe/internal/passes"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

const chainSrc = `
param m = 8;
input C : array[real] [0, m];
A : array[real] := forall i in [0, m] construct C[i] * 2. endall;
B : array[real] := forall i in [0, m] construct A[i] + 1. endall;
output B;
`

func compileSrc(t *testing.T, src string, opts Options) (*val.Checked, *Result) {
	t.Helper()
	prog, err := val.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := val.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func TestCompileAndRunChain(t *testing.T) {
	_, r := compileSrc(t, chainSrc, Options{})
	C := make([]float64, 9)
	for i := range C {
		C[i] = float64(i)
	}
	if err := r.SetInputs(map[string][]value.Value{"C": value.Reals(C)}); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.Graph, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output("B")
	if len(out) != 9 {
		t.Fatalf("B has %d elements", len(out))
	}
	for i := range C {
		if out[i].AsReal() != C[i]*2+1 {
			t.Errorf("B[%d] = %v", i, out[i])
		}
	}
	if rng := r.Outputs["B"]; rng.Lo != 0 || rng.Hi != 8 || rng.Len() != 9 {
		t.Errorf("output range %+v", rng)
	}
	if len(r.Blocks) != 2 || r.Blocks[0].Name != "A" || r.Blocks[1].Form != "forall" {
		t.Errorf("block metadata %+v", r.Blocks)
	}
	if r.Plan == nil {
		t.Error("balancing plan missing")
	}
}

func TestSetInputErrors(t *testing.T) {
	_, r := compileSrc(t, chainSrc, Options{})
	if err := r.SetInput("nope", nil); err == nil {
		t.Error("unknown input accepted")
	}
	if err := r.SetInput("C", value.Reals(make([]float64, 3))); err == nil {
		t.Error("wrong length accepted")
	}
	if err := r.SetInputs(map[string][]value.Value{}); err == nil {
		t.Error("missing input accepted")
	}
}

// TestEmptyPipelineOption checks that an empty non-nil pass list runs no
// pass, while a nil one runs the default balance pass.
func TestEmptyPipelineOption(t *testing.T) {
	_, r := compileSrc(t, chainSrc, Options{Passes: []passes.Pass{}})
	if r.Plan != nil || len(r.PassStats) != 0 {
		t.Errorf("empty pipeline ran passes %v (plan %v)", r.PassStats, r.Plan)
	}
	_, d := compileSrc(t, chainSrc, Options{})
	if d.Plan == nil || len(d.PassStats) != 1 || d.PassStats[0].Name != "balance" {
		t.Errorf("nil pipeline ran %v, want balance", d.PassStats)
	}
}

func TestParallelForallOption(t *testing.T) {
	_, r := compileSrc(t, chainSrc, Options{ForallScheme: forall.Parallel})
	if r.Blocks[0].Scheme != "parallel" {
		t.Errorf("scheme %q", r.Blocks[0].Scheme)
	}
	C := make([]float64, 9)
	for i := range C {
		C[i] = float64(i) + 1
	}
	if err := r.SetInputs(map[string][]value.Value{"C": value.Reals(C)}); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.Graph, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output("B")
	for i := range C {
		if out[i].AsReal() != C[i]*2+1 {
			t.Errorf("B[%d] = %v", i, out[i])
		}
	}
}

func TestUnconsumedBlockDrains(t *testing.T) {
	// D is neither consumed nor an output; its stream must drain through a
	// discard sink rather than jam the shared inputs.
	src := `
param m = 4;
input C : array[real] [0, m];
D : array[real] := forall i in [0, m] construct C[i] * 3. endall;
B : array[real] := forall i in [0, m] construct C[i] + 1. endall;
output B;
`
	_, r := compileSrc(t, src, Options{})
	C := []float64{1, 2, 3, 4, 5}
	if err := r.SetInputs(map[string][]value.Value{"C": value.Reals(C)}); err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(r.Graph, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean {
		t.Errorf("unconsumed block jammed: %v", res.Stalled)
	}
	if len(res.Output("B")) != 5 {
		t.Errorf("B incomplete")
	}
}

func TestFlowGraphAndDOT(t *testing.T) {
	c, _ := compileSrc(t, chainSrc, Options{})
	edges := FlowGraph(c)
	if len(edges) != 2 {
		t.Fatalf("edges %v", edges)
	}
	if edges[0].From != "C" || edges[0].To != "A" || edges[1].From != "A" || edges[1].To != "B" {
		t.Errorf("edges %v", edges)
	}
	dot := FlowDOT(c)
	for _, want := range []string{"C [shape=ellipse]", "A -> B", "forall"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestDedupOptionAtPipestructLevel(t *testing.T) {
	// Duplicate references inside one block: dedup merges the gates.
	src := `
param m = 6;
input C : array[real] [0, m];
A : array[real] := forall i in [0, m] construct C[i] * C[i] + C[i] endall;
output A;
`
	c, plain := compileSrc(t, src, Options{})
	_, ded := compileSrc(t, src, Options{Passes: []passes.Pass{passes.Dedup{}, passes.Balance{}}})
	if ded.Deduped == 0 {
		t.Fatal("nothing deduped")
	}
	if ded.Graph.NumNodes() >= plain.Graph.NumNodes() {
		t.Errorf("dedup did not shrink: %d vs %d", ded.Graph.NumNodes(), plain.Graph.NumNodes())
	}
	C := make([]float64, 7)
	for i := range C {
		C[i] = float64(i) - 2
	}
	for _, r := range []*Result{plain, ded} {
		if err := r.SetInputs(map[string][]value.Value{"C": value.Reals(C)}); err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(r.Graph, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range C {
			want := C[i]*C[i] + C[i]
			if got := res.Output("A")[i].AsReal(); got != want {
				t.Errorf("A[%d] = %v, want %v", i, got, want)
			}
		}
	}
	_ = c
}
