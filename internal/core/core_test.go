package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// fig3Src is the composed program of the paper's Fig 3: Example 1's forall
// feeding Example 2's for-iter.
const fig3Src = `
param m = 16;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)
  endall;
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

func fig3Inputs(m int) map[string][]value.Value {
	B := make([]float64, m+2)
	C := make([]float64, m+2)
	for i := range B {
		B[i] = 0.2 + float64(i%7)/10
		C[i] = math.Sin(float64(i) / 3)
	}
	return map[string][]value.Value{"B": value.Reals(B), "C": value.Reals(C)}
}

// TestFig3EndToEnd is Theorem 4 on the paper's own composition: the whole
// pipe-structured program runs fully pipelined and matches the reference
// interpreter.
func TestFig3EndToEnd(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(16)
	if err := u.Validate(inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("X"); ii != 2 {
		t.Errorf("end-to-end II = %v, want 2 (Theorem 4)", ii)
	}
	if !res.Exec.Clean {
		t.Errorf("pipeline did not drain: %v", res.Exec.Stalled)
	}
	x := res.Outputs["X"]
	if x.Lo != 0 || len(x.Elems) != 17 {
		t.Errorf("X range: lo=%d n=%d", x.Lo, len(x.Elems))
	}
	// The compiler must have chosen the companion scheme for X.
	var xMeta *pipestruct.BlockMeta
	for i := range u.Compiled.Blocks {
		if u.Compiled.Blocks[i].Name == "X" {
			xMeta = &u.Compiled.Blocks[i]
		}
	}
	if xMeta == nil || xMeta.Scheme != "companion" || xMeta.Kind != "linear" {
		t.Errorf("X block meta: %+v", xMeta)
	}
	pred, err := u.PredictII()
	if err != nil {
		t.Fatal(err)
	}
	if pred.Float() != 2 {
		t.Errorf("predicted II = %v, want 2", pred)
	}
}

// TestFig3ToddThrottles forces Todd's scheme: the whole program slows to
// the loop's 1/3 rate — the paper's motivation for the companion pipeline.
func TestFig3ToddThrottles(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{ForIterScheme: foriter.Todd})
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(16)
	if err := u.Validate(inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("X"); ii != 3 {
		t.Errorf("Todd end-to-end II = %v, want 3", ii)
	}
}

// TestUnbalancedSlower verifies balancing matters for the composed program.
func TestUnbalancedSlower(t *testing.T) {
	bal, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unbal, err := CompileArtifact(fig3Src, Options{Passes: "none"})
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(16)
	rb, err := bal.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unbal.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ru.II("X") <= rb.II("X") {
		t.Errorf("unbalanced II %v should exceed balanced %v", ru.II("X"), rb.II("X"))
	}
	// Same values regardless.
	for i := range rb.Outputs["X"].Elems {
		if !value.Equal(rb.Outputs["X"].Elems[i], ru.Outputs["X"].Elems[i]) {
			t.Fatalf("X[%d] differs between balanced and unbalanced runs", i)
		}
	}
}

// TestNaiveVsOptimalBalance: both are fully pipelined; optimal uses no
// more buffer stages (§8, conclusions 1–3).
func TestNaiveVsOptimalBalance(t *testing.T) {
	opt, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := CompileArtifact(fig3Src, Options{Passes: "balance-naive"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Compiled.Plan.Total > naive.Compiled.Plan.Total {
		t.Errorf("optimal buffers %d > naive %d", opt.Compiled.Plan.Total, naive.Compiled.Plan.Total)
	}
	inputs := fig3Inputs(16)
	rn, err := naive.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := rn.II("X"); ii != 2 {
		t.Errorf("naive-balanced II = %v, want 2", ii)
	}
}

func TestMultipleOutputs(t *testing.T) {
	src := `
param m = 8;
input C : array[real] [0, m];
A : array[real] := forall i in [0, m] construct C[i] + 1. endall;
D : array[real] := forall i in [0, m] construct A[i] * 2. endall;
output A;
output D;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	C := make([]float64, 9)
	for i := range C {
		C[i] = float64(i)
	}
	inputs := map[string][]value.Value{"C": value.Reals(C)}
	if err := u.Validate(inputs, 0); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range C {
		if res.Outputs["A"].Elems[i].AsReal() != C[i]+1 {
			t.Errorf("A[%d] wrong", i)
		}
		if res.Outputs["D"].Elems[i].AsReal() != (C[i]+1)*2 {
			t.Errorf("D[%d] wrong", i)
		}
	}
}

// TestDiamondDependency exercises a block-level diamond: one producer
// consumed by two blocks whose results are combined.
func TestDiamondDependency(t *testing.T) {
	src := `
param m = 10;
input C : array[real] [0, m];
A : array[real] := forall i in [0, m] construct C[i] * 2. endall;
B : array[real] := forall i in [1, m-1] construct A[i-1] + A[i+1] endall;
D : array[real] := forall i in [1, m-1] construct B[i] + A[i] endall;
output D;
`
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	C := make([]float64, 11)
	for i := range C {
		C[i] = math.Sqrt(float64(i) + 1)
	}
	inputs := map[string][]value.Value{"C": value.Reals(C)}
	if err := u.Validate(inputs, 1e-12); err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("D"); ii != 2 {
		t.Errorf("diamond II = %v, want 2", ii)
	}
}

func TestNonPipeStructured(t *testing.T) {
	// A block defined by a plain expression is outside the class.
	src := `
input C : array[real] [0, 3];
A : array[real] := C;
output A;
`
	if _, err := CompileArtifact(src, Options{}); err == nil {
		t.Error("non-pipe-structured program accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileArtifact("not val at all ;;", Options{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := CompileArtifact("output Z;", Options{}); err == nil {
		t.Error("undefined output accepted")
	}
}

func TestRunErrors(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Run(Binding{}, map[string][]value.Value{}); err == nil {
		t.Error("missing inputs accepted")
	}
	if _, err := u.Run(Binding{}, map[string][]value.Value{
		"B": value.Reals(make([]float64, 3)),
		"C": value.Reals(make([]float64, 18)),
	}); err == nil {
		t.Error("short input accepted")
	}
}

func TestReport(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := u.Report()
	for _, want := range []string{"forall", "for-iter", "companion", "linear", "cells:", "predicted II = 2/1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestFlowGraph(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	edges := pipestruct.FlowGraph(u.Checked)
	want := map[string]bool{"C->A": true, "B->A": true, "A->X": true, "B->X": true}
	if len(edges) != len(want) {
		t.Fatalf("edges: %v", edges)
	}
	for _, e := range edges {
		if !want[e.From+"->"+e.To] {
			t.Errorf("unexpected edge %v", e)
		}
	}
	dot := pipestruct.FlowDOT(u.Checked)
	if !strings.Contains(dot, "A -> X") || !strings.Contains(dot, "for-iter") {
		t.Errorf("FlowDOT malformed:\n%s", dot)
	}
}

func TestReusableRuns(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in1 := fig3Inputs(16)
	r1, err := u.Run(Binding{}, in1)
	if err != nil {
		t.Fatal(err)
	}
	// second run with different data
	in2 := map[string][]value.Value{}
	for k, v := range in1 {
		vs := make([]value.Value, len(v))
		for i := range v {
			vs[i] = value.R(v[i].AsReal() + 1)
		}
		in2[k] = vs
	}
	r2, err := u.Run(Binding{}, in2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Outputs["X"].Elems {
		if !value.Equal(r1.Outputs["X"].Elems[i], r2.Outputs["X"].Elems[i]) {
			same = false
		}
	}
	if same {
		t.Error("different inputs produced identical outputs")
	}
	// and re-running in1 reproduces r1
	r3, err := u.Run(Binding{}, in1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Outputs["X"].Elems {
		if !value.Equal(r1.Outputs["X"].Elems[i], r3.Outputs["X"].Elems[i]) {
			t.Fatal("re-run with same inputs diverged")
		}
	}
}

// TestSerializedGraphRoundTrip compiles Fig 3, serializes the instruction
// graph (the dfc -emit / dfsim -graph pipeline), and checks the loaded
// graph reproduces the original run exactly.
func TestSerializedGraphRoundTrip(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(16)
	if err := u.Compiled.SetInputs(inputs); err != nil {
		t.Fatal(err)
	}
	direct, err := exec.Run(u.Compiled.Graph, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := u.Compiled.Graph.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := exec.Run(g2, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != loaded.Cycles {
		t.Errorf("cycles %d vs %d", direct.Cycles, loaded.Cycles)
	}
	dv, lv := direct.Output("X"), loaded.Output("X")
	if len(dv) != len(lv) {
		t.Fatalf("output lengths differ")
	}
	for i := range dv {
		if !value.Equal(dv[i], lv[i]) {
			t.Errorf("X[%d] differs after round trip", i)
		}
	}
}

// TestWindowControlSkew: every window gate's control arc carries its data
// arc's grid skew — the for-iter's coefficient windows and the forall's
// array references alike, with generator cells or literal control — so a
// generator shared by gates of different shift is levelled per gate. The
// graphs are left unbalanced: a FIFO inserted on an arc keeps the skew on
// its input side.
func TestWindowControlSkew(t *testing.T) {
	for _, opts := range []Options{{Passes: "none"}, {Passes: "none", LiteralControl: true}} {
		a, err := CompileArtifact(fig3Src, opts)
		if err != nil {
			t.Fatal(err)
		}
		skewed := 0
		for _, n := range a.Compiled.Graph.Nodes() {
			if n.Op != graph.OpTGate || n.In[0].Arc == nil || n.In[1].Arc == nil {
				continue
			}
			ctl, data := n.In[0].Arc, n.In[1].Arc
			if ctl.Skew != data.Skew {
				t.Errorf("literal=%v: %s: control skew %d, data skew %d", opts.LiteralControl, n.Name(), ctl.Skew, data.Skew)
			}
			if data.Skew != 0 {
				skewed++
			}
		}
		if skewed == 0 {
			t.Errorf("literal=%v: no skewed window in Fig 3", opts.LiteralControl)
		}
	}
}

// TestDedupOption checks common-cell elimination end to end: fewer cells,
// identical results, still fully pipelined.
func TestDedupOption(t *testing.T) {
	plain, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ded, err := CompileArtifact(fig3Src, Options{Passes: "dedup,balance"})
	if err != nil {
		t.Fatal(err)
	}
	if ded.Compiled.Deduped == 0 {
		t.Error("dedup removed nothing from Fig 3")
	}
	if ded.Compiled.Graph.NumNodes() >= plain.Compiled.Graph.NumNodes() {
		t.Errorf("dedup did not shrink the graph: %d vs %d",
			ded.Compiled.Graph.NumNodes(), plain.Compiled.Graph.NumNodes())
	}
	inputs := fig3Inputs(16)
	if err := ded.Validate(inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
	res, err := ded.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("X"); ii != 2 {
		t.Errorf("deduped II = %v, want 2", ii)
	}
	if !strings.Contains(ded.Report(), "dedup:") {
		t.Error("report does not mention dedup")
	}
	// Past the fill transient: window gates of different grid shift share
	// one control generator, which balancing must level at each gate's
	// skew, or the shared generator throttles the pipeline.
	for _, m := range []int{64, 1024} {
		p := progs.Fig3(m)
		ded, err := CompileArtifact(p.Source, Options{Passes: "dedup,balance"})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ded.Run(Binding{}, p.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		if ii := res.II("X"); ii != 2 {
			t.Errorf("m=%d: deduped II = %v, want 2", m, ii)
		}
	}
}

// TestWaterfallMarksEveryFiring checks that exec.Waterfall charts every
// firing: on a conditional program, where a gate that discards its token
// still fires, each cell's row carries exactly as many marks as the run's
// Firings count for that cell.
func TestWaterfallMarksEveryFiring(t *testing.T) {
	for _, p := range []progs.Program{progs.Fig5(8), progs.Example2(8)} {
		a, err := CompileArtifact(p.Source, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := exec.Options{Inputs: p.Inputs}
		res, err := exec.Run(a.Compiled.Graph, opt)
		if err != nil {
			t.Fatal(err)
		}
		chart, err := exec.Waterfall(a.Compiled.Graph, opt, res.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(chart, "\n")[1:] // past the cycle ruler
		for _, n := range res.Graph().Nodes() {
			row := rows[n.ID]
			marks := strings.Count(row[strings.IndexByte(row, '|'):], "#")
			if marks != res.Firings[n.ID] {
				t.Errorf("%s: %s charts %d firings, the run counts %d", p.Name, n.Name(), marks, res.Firings[n.ID])
			}
		}
	}
}

// armSlackSrc is a one-block forall program; %s is its body expression.
const armSlackSrc = `
param m = 23;
input A : array[real] [0, m];
Y : array[real] := forall i in [0, m] construct %s endall;
output Y;
`

// TestArmSlackPass checks the arm-slack pass: each data-dependent
// conditional MERGE gets one k-stage FIFO on each data arm, the balanced
// graph carries at least 2k more buffer stages, the outputs and the full
// rate are unchanged, and a statically steered conditional is left alone.
func TestArmSlackPass(t *testing.T) {
	const k = 3
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i) - 11.5
	}
	inputs := map[string][]value.Value{"A": value.Reals(vals)}
	// compile returns the artifact, its run, and the armslack FIFO depths
	// feeding each MERGE right after the arm-slack pass, by MERGE and port.
	compile := func(body, passList string) (*Artifact, *RunResult, map[graph.NodeID]map[int]int) {
		t.Helper()
		arms := map[graph.NodeID]map[int]int{}
		snap := func(pass string, g *graph.Graph) {
			if pass != "arm-slack" {
				return
			}
			for _, n := range g.Nodes() {
				if n.Op != graph.OpFIFO || n.Label != "armslack" {
					continue
				}
				for _, a := range n.Out {
					if g.Node(a.To).Op != graph.OpMerge {
						t.Errorf("armslack FIFO %s feeds %s", n.Name(), g.Node(a.To).Name())
						continue
					}
					if arms[a.To] == nil {
						arms[a.To] = map[int]int{}
					}
					arms[a.To][a.ToPort] = n.Cap
				}
			}
		}
		a, err := CompileArtifact(fmt.Sprintf(armSlackSrc, body), Options{Passes: passList, Snapshot: snap})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(inputs, 1e-12); err != nil {
			t.Fatalf("passes=%q: %v", passList, err)
		}
		res, err := a.Run(Binding{}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return a, res, arms
	}
	stages := func(a *Artifact) int { return a.Compiled.Graph.ComputeStats().BufferUnits }
	padList := fmt.Sprintf("arm-slack=%d,balance", k)

	dynamic := "if A[i] > 0. then A[i]*2. else -(A[i]) endif"
	plain, pr, _ := compile(dynamic, "")
	padded, qr, arms := compile(dynamic, padList)
	if len(arms) == 0 {
		t.Fatal("no conditional arm was padded")
	}
	for m, ports := range arms {
		if len(ports) != 2 || ports[1] != k || ports[2] != k {
			t.Errorf("MERGE %d arms padded %v, want %d stages on ports 1 and 2", m, ports, k)
		}
	}
	if ps, qs := stages(plain), stages(padded); qs < ps+2*k {
		t.Errorf("buffer stages %d -> %d, want at least +%d", ps, qs, 2*k)
	}
	pv, qv := pr.Outputs["Y"].Elems, qr.Outputs["Y"].Elems
	if len(pv) != len(qv) {
		t.Fatalf("output lengths %d vs %d", len(pv), len(qv))
	}
	for i := range pv {
		if !value.Equal(pv[i], qv[i]) {
			t.Errorf("Y[%d] = %v padded, %v plain", i, qv[i], pv[i])
		}
	}
	if ii := qr.II("Y"); ii != 2 {
		t.Errorf("padded II = %v, want 2", ii)
	}

	static := "if i < 12 then A[i] else -(A[i]) endif"
	s0, _, _ := compile(static, "")
	s1, _, sarms := compile(static, padList)
	if len(sarms) != 0 || stages(s1) != stages(s0) {
		t.Errorf("static conditional padded: arms %v, buffer stages %d -> %d", sarms, stages(s0), stages(s1))
	}
}

// TestQuickRandomProgramsDeduped reruns the random-program property with
// common-cell elimination enabled.
func TestQuickRandomProgramsDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 20; trial++ {
		src, inputs := randomProgram(rng, 10+rng.Intn(8))
		u, err := CompileArtifact(src, Options{Passes: "dedup,balance"})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		if err := u.Validate(inputs, 1e-6); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
	}
}

// TestLargeScale runs the composed Fig 3 program at a large extent to show
// the rate holds at scale and the makespan stays ≈ 2·n + fill. Skipped in
// -short mode.
func TestLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale soak")
	}
	m := 32768
	u, err := CompileArtifact(strings.Replace(fig3Src, "param m = 16;", "param m = 32768;", 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(m)
	res, err := u.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if ii := res.II("X"); ii != 2 {
		t.Errorf("II = %v at m=%d", ii, m)
	}
	if res.Exec.Cycles > 2*(m+2)+200 {
		t.Errorf("makespan %d cycles for %d elements", res.Exec.Cycles, m)
	}
}
