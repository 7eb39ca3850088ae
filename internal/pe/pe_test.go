package pe

import (
	"math/rand"
	"strings"
	"testing"

	"staticpipe/internal/balance"
	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// arrayIn describes a test input array.
type arrayIn struct {
	lo   int64
	vals []float64
}

// compileRun compiles src as a primitive expression on "i" over [lo, hi],
// wires the given arrays, optionally balances, and simulates.
func compileRun(t *testing.T, src string, lo, hi int64, params map[string]int64,
	arrays map[string]arrayIn, opts Options, doBalance bool) *exec.Result {
	t.Helper()
	e, err := val.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	g := graph.New()
	b := NewBuilder(g, "i", lo, hi, params, opts)
	for name, a := range arrays {
		srcN := g.AddSource(name, value.Reals(a.vals))
		b.BindArray(name, srcN, a.lo, a.lo+int64(len(a.vals))-1)
	}
	out, err := b.CompileStream(e)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	sink := g.AddSink("out")
	g.Connect(out, sink, 0)
	// Drain any array the expression did not reference.
	for _, n := range g.Nodes() {
		if n.Op == graph.OpSource && len(n.Out) == 0 {
			g.Connect(n, g.AddSink("discard:"+n.Label), 0)
		}
	}
	if doBalance {
		if _, err := balance.Balance(g); err != nil {
			t.Fatalf("balance: %v", err)
		}
	}
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return res
}

// directEval evaluates src per index directly — the reference for
// compiled-graph outputs.
func directEval(t *testing.T, src string, lo, hi int64, params map[string]int64,
	arrays map[string]arrayIn) []value.Value {
	t.Helper()
	e, err := val.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []value.Value
	for i := lo; i <= hi; i++ {
		v, err := evalRef(e, i, "i", params, arrays, map[string]value.Value{})
		if err != nil {
			t.Fatalf("reference eval at i=%d: %v", i, err)
		}
		out = append(out, v)
	}
	return out
}

// evalRef is the test-local reference evaluator for primitive expressions.
func evalRef(e val.Expr, i int64, iv string, params map[string]int64,
	arrays map[string]arrayIn, env map[string]value.Value) (value.Value, error) {
	switch x := e.(type) {
	case *val.IntLit:
		return value.I(x.Val), nil
	case *val.RealLit:
		return value.R(x.F), nil
	case *val.BoolLit:
		return value.B(x.Val), nil
	case *val.Name:
		if x.Ident == iv {
			return value.I(i), nil
		}
		if v, ok := env[x.Ident]; ok {
			return v, nil
		}
		if v, ok := params[x.Ident]; ok {
			return value.I(v), nil
		}
		panic("unbound " + x.Ident)
	case *val.Unary:
		v, err := evalRef(x.E, i, iv, params, arrays, env)
		if err != nil {
			return value.Value{}, err
		}
		return foldUnary(x.Op, v)
	case *val.Binary:
		l, err := evalRef(x.L, i, iv, params, arrays, env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := evalRef(x.R, i, iv, params, arrays, env)
		if err != nil {
			return value.Value{}, err
		}
		return val.ApplyBinary(x.Op, l, r)
	case *val.If:
		c, err := evalRef(x.Cond, i, iv, params, arrays, env)
		if err != nil {
			return value.Value{}, err
		}
		if c.AsBool() {
			return evalRef(x.Then, i, iv, params, arrays, env)
		}
		return evalRef(x.Else, i, iv, params, arrays, env)
	case *val.Let:
		inner := map[string]value.Value{}
		for k, v := range env {
			inner[k] = v
		}
		for _, d := range x.Defs {
			v, err := evalRef(d.Init, i, iv, params, arrays, inner)
			if err != nil {
				return value.Value{}, err
			}
			inner[d.Name] = v
		}
		return evalRef(x.Body, i, iv, params, arrays, inner)
	case *val.Index:
		a := arrays[x.Array]
		sub, err := evalRef(x.Sub, i, iv, params, arrays, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.R(a.vals[sub.AsInt()-a.lo]), nil
	default:
		panic("unsupported in reference evaluator")
	}
}

func ramp(lo int64, n int, scale float64) arrayIn {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = scale * (float64(i) - float64(n)/3)
	}
	return arrayIn{lo: lo, vals: vals}
}

func checkAgainstReference(t *testing.T, src string, lo, hi int64, params map[string]int64,
	arrays map[string]arrayIn, opts Options) *exec.Result {
	t.Helper()
	res := compileRun(t, src, lo, hi, params, arrays, opts, true)
	want := directEval(t, src, lo, hi, params, arrays)
	got := res.Output("out")
	if len(got) != len(want) {
		t.Fatalf("%q: got %d values, want %d", src, len(got), len(want))
	}
	for j := range want {
		if !value.Close(got[j], want[j], 1e-12) {
			t.Errorf("%q: out[%d] = %v, want %v", src, j, got[j], want[j])
		}
	}
	return res
}

// TestFig2Expression compiles the paper's §3 scalar pipeline example.
func TestFig2Expression(t *testing.T) {
	res := checkAgainstReference(t,
		"let y : real := A[i]*B[i] in (y + 2.)*(y - 3.) endlet",
		0, 63, nil,
		map[string]arrayIn{"A": ramp(0, 64, 1.5), "B": ramp(0, 64, -0.5)},
		Options{})
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2", ii)
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

// TestFig4ArraySelection compiles the smoothing kernel of Fig 4 over the
// interior indices and checks full pipelining after balancing.
func TestFig4ArraySelection(t *testing.T) {
	m := int64(32)
	res := checkAgainstReference(t,
		"0.25 * (C[i-1] + 2.*C[i] + C[i+1])",
		1, m, map[string]int64{"m": m},
		map[string]arrayIn{"C": ramp(0, int(m)+2, 0.7)},
		Options{})
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2 (Fig 4 is fully pipelined)", ii)
	}
	if !res.Clean {
		t.Errorf("unused boundary elements must be discarded, not stranded: %v", res.Stalled)
	}
}

// TestFig4UnbalancedThrottles shows the role of the FIFOs in Fig 4: without
// balancing the reconvergent adder chain runs slower than the maximum rate.
func TestFig4UnbalancedThrottles(t *testing.T) {
	m := int64(32)
	arrays := map[string]arrayIn{"C": ramp(0, int(m)+2, 0.7)}
	src := "0.25 * (C[i-1] + 2.*C[i] + C[i+1])"
	unbal := compileRun(t, src, 1, m, nil, arrays, Options{}, false)
	bal := compileRun(t, src, 1, m, nil, arrays, Options{}, true)
	if unbal.II("out") <= bal.II("out") {
		t.Errorf("unbalanced II %v should exceed balanced II %v",
			unbal.II("out"), bal.II("out"))
	}
	// Results are identical either way.
	u, v := unbal.Output("out"), bal.Output("out")
	for j := range u {
		if !value.Equal(u[j], v[j]) {
			t.Fatalf("output %d differs", j)
		}
	}
}

// TestFig5Conditional compiles the §5 conditional example with a
// data-dependent condition.
func TestFig5Conditional(t *testing.T) {
	res := checkAgainstReference(t,
		"if C[i] > 0. then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif",
		0, 47, nil,
		map[string]arrayIn{
			"A": ramp(0, 48, 1.1),
			"B": ramp(0, 48, -0.3),
			"C": ramp(0, 48, 0.9),
		},
		Options{})
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2 (Fig 5 is fully pipelined)", ii)
	}
}

// TestExample1Body compiles the full body of the paper's Example 1 with its
// static boundary condition.
func TestExample1Body(t *testing.T) {
	m := int64(24)
	res := checkAgainstReference(t,
		`let P : real := if (i = 0) | (i = m+1) then C[i]
		                 else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif
		 in B[i]*(P*P) endlet`,
		0, m+1, map[string]int64{"m": m},
		map[string]arrayIn{
			"B": ramp(0, int(m)+2, 2.0),
			"C": ramp(0, int(m)+2, 0.25),
		},
		Options{})
	if ii := res.II("out"); ii != 2 {
		t.Errorf("II = %v, want 2", ii)
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

// TestStaticConditionUsesPatterns checks the Todd-style compile-time
// evaluation: a condition over i and params compiles to a control pattern
// generator, not to comparison cells.
func TestStaticConditionUsesPatterns(t *testing.T) {
	e, err := val.ParseExpr("if (i = 0) | (i = 5) then C[i] else 0. endif")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	b := NewBuilder(g, "i", 0, 5, nil, Options{})
	srcN := g.AddSource("C", value.Reals(make([]float64, 6)))
	b.BindArray("C", srcN, 0, 5)
	if _, err := b.CompileStream(e); err != nil {
		t.Fatal(err)
	}
	stats := g.ComputeStats()
	if stats.ByOp[graph.OpEQ] != 0 || stats.ByOp[graph.OpOr] != 0 {
		t.Errorf("static condition compiled to runtime cells: %v", stats.ByOp)
	}
	if stats.ByOp[graph.OpCtlGen] == 0 {
		t.Error("no control generator emitted")
	}
}

func TestConstantFolding(t *testing.T) {
	e, err := val.ParseExpr("A[i] * (2 + 3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	b := NewBuilder(g, "i", 0, 3, nil, Options{})
	b.BindArray("A", g.AddSource("A", value.Reals([]float64{1, 2, 3, 4})), 0, 3)
	out, err := b.Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	mul := out.Node
	if mul.Op != graph.OpMul {
		t.Fatalf("root op = %s", mul.Op)
	}
	if mul.In[1].Literal == nil || mul.In[1].Literal.AsInt() != 5 {
		t.Errorf("constant not folded into literal operand: %+v", mul.In[1])
	}
}

func TestPureConstantExpression(t *testing.T) {
	res := compileRun(t, "2. * 3. + 1.", 0, 7, nil, nil, Options{}, true)
	got := res.Output("out")
	if len(got) != 8 {
		t.Fatalf("constant stream length %d, want 8", len(got))
	}
	for _, v := range got {
		if v.AsReal() != 7 {
			t.Errorf("got %v, want 7", v)
		}
	}
}

func TestIndexVariableAsValue(t *testing.T) {
	checkAgainstReference(t, "A[i] * i + i", 2, 9, nil,
		map[string]arrayIn{"A": ramp(0, 12, 1.0)}, Options{})
}

func TestNestedConditionals(t *testing.T) {
	// outer static, inner static on the selected subsequence
	checkAgainstReference(t,
		`if i < 4 then if i < 2 then A[i] else -A[i] endif else A[i] * 2. endif`,
		0, 7, nil, map[string]arrayIn{"A": ramp(0, 8, 1.3)}, Options{})
	// outer dynamic, inner static (cannot fuse; stacked gates)
	checkAgainstReference(t,
		`if A[i] > 0. then if i < 4 then B[i] else -B[i] endif else 0. endif`,
		0, 7, nil,
		map[string]arrayIn{"A": ramp(0, 8, 1.0), "B": ramp(0, 8, -0.8)},
		Options{})
	// outer dynamic, inner dynamic
	checkAgainstReference(t,
		`if A[i] > 0. then if B[i] > 0. then A[i]+B[i] else A[i]-B[i] endif else 0. endif`,
		0, 15, nil,
		map[string]arrayIn{"A": ramp(0, 16, 1.0), "B": ramp(0, 16, -0.6)},
		Options{})
}

func TestConstantCondition(t *testing.T) {
	// via staticBools: compile-time all-true pattern folds nothing, but a
	// literally constant condition under a dynamic outer arm must select
	// the arm directly.
	checkAgainstReference(t,
		`if A[i] > 0. then if true then B[i] else 0. endif else 1. endif`,
		0, 7, nil,
		map[string]arrayIn{"A": ramp(0, 8, 1.0), "B": ramp(0, 8, 2.0)},
		Options{})
}

func TestLetShadowing(t *testing.T) {
	checkAgainstReference(t,
		`let x : real := A[i]; x : real := x + 1. in x * 2. endlet`,
		0, 5, nil, map[string]arrayIn{"A": ramp(0, 6, 1.0)}, Options{})
}

func TestMinMaxAbs(t *testing.T) {
	checkAgainstReference(t,
		`min(A[i], 0.) + max(B[i], 1.) * abs(A[i])`,
		0, 9, nil,
		map[string]arrayIn{"A": ramp(0, 10, 1.7), "B": ramp(0, 10, -1.2)},
		Options{})
}

func TestShiftedIterationSpace(t *testing.T) {
	// iteration space not starting at the array's lower bound
	checkAgainstReference(t, "C[i-2] + C[i+2]", 4, 9, nil,
		map[string]arrayIn{"C": ramp(0, 14, 0.5)}, Options{})
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"forall j in [0,1] construct j endall", "nested forall"},
		{"for j : integer := 0 do j endfor", "nested for-iter"},
		{"[0: 1.]", "array constructor"},
		{"A[i: 1.]", "array constructor"},
		{"A[i*2]", "form i±constant"},
		{"A[j]", "form i±constant"},
		{"A", "without a subscript"},
		{"zz + 1", "unbound identifier"},
		{"B[i]", "unbound array"},
		{"A[i+9]", "outside the array's range"},
	}
	for _, c := range cases {
		e, err := val.ParseExpr(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		g := graph.New()
		b := NewBuilder(g, "i", 0, 3, nil, Options{})
		b.BindArray("A", g.AddSource("A", value.Reals(make([]float64, 4))), 0, 3)
		_, err = b.Compile(e)
		if err == nil {
			t.Errorf("%q: accepted", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.want)
		}
		var npe *NotPrimitiveError
		if !asNotPrimitive(err, &npe) {
			t.Errorf("%q: error is %T, want *NotPrimitiveError", c.src, err)
		}
	}
}

func asNotPrimitive(err error, out **NotPrimitiveError) bool {
	if e, ok := err.(*NotPrimitiveError); ok {
		*out = e
		return true
	}
	return false
}

func TestClassify(t *testing.T) {
	arrays := map[string]bool{"A": true}
	params := map[string]int64{"m": 5}
	good := []string{
		"1", "2.5", "true", "i", "m", "A[i]", "A[i-1]", "A[m+i]",
		"let x := A[i] in x*x endlet",
		"if i < m then A[i] else 0. endif",
		"-A[i]", "abs(A[i])",
	}
	for _, src := range good {
		e, err := val.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Classify(e, "i", params, arrays, nil); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	bad := []string{
		"A", "A[i*i]", "x", "[0: 1.]", "A[i: 2.]",
		"forall j in [0,1] construct j endall",
		"for j : integer := 0 do j endfor",
	}
	for _, src := range bad {
		e, err := val.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Classify(e, "i", params, arrays, nil); err == nil {
			t.Errorf("%q: classified primitive", src)
		}
	}
	// let-bound names become scalars for the body
	e, _ := val.ParseExpr("let y := 1 in y + z endlet")
	if err := Classify(e, "i", nil, nil, map[string]bool{"z": true}); err != nil {
		t.Errorf("scalar env not honored: %v", err)
	}
}

func TestLiteralControlOption(t *testing.T) {
	// The same kernels compile with literal control subgraphs; outputs
	// match, at the cost of residual tokens (free-running alternators).
	m := int64(12)
	src := "0.25 * (C[i-1] + 2.*C[i] + C[i+1])"
	arrays := map[string]arrayIn{"C": ramp(0, int(m)+2, 0.7)}
	res := compileRun(t, src, 1, m, nil, arrays, Options{LiteralControl: true}, true)
	want := directEval(t, src, 1, m, nil, arrays)
	got := res.Output("out")
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for j := range want {
		if !value.Close(got[j], want[j], 1e-12) {
			t.Errorf("out[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	stats := res.Graph.ComputeStats()
	if stats.ByOp[graph.OpCtlGen] != 0 {
		t.Error("literal mode still emitted idealized control generators")
	}
}

// TestQuickRandomPrimitive cross-checks compiled graphs against the
// reference evaluator on randomly generated primitive expressions.
func TestQuickRandomPrimitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arrays := map[string]arrayIn{
		"A": ramp(0, 16, 1.0),
		"B": ramp(0, 16, -0.7),
	}
	for trial := 0; trial < 40; trial++ {
		src := randomPE(rng, 0)
		res := compileRun(t, src, 2, 13, nil, arrays, Options{}, true)
		want := directEval(t, src, 2, 13, nil, arrays)
		got := res.Output("out")
		if len(got) != len(want) {
			t.Fatalf("trial %d %q: got %d values, want %d", trial, src, len(got), len(want))
		}
		for j := range want {
			if !value.Close(got[j], want[j], 1e-9) {
				t.Errorf("trial %d %q: out[%d] = %v, want %v", trial, src, j, got[j], want[j])
			}
		}
		// No II assertion here: random conditions can partition the short
		// range into bursts whose pipeline-fill gap lands in the measured
		// window (the deterministic kernel tests assert II = 2 where the
		// paper claims it). Bound the makespan loosely instead.
		if res.Cycles > 2*len(want)+200 {
			t.Errorf("trial %d %q: makespan %d cycles for %d values", trial, src, res.Cycles, len(want))
		}
	}
}

// randomPE generates a random primitive expression in the test arrays'
// safe index window.
func randomPE(rng *rand.Rand, depth int) string {
	switch r := rng.Intn(10); {
	case depth > 2 || r < 2:
		// leaves
		switch rng.Intn(4) {
		case 0:
			return "A[i]"
		case 1:
			return "B[i-1]"
		case 2:
			return "1.5"
		default:
			return "A[i+2]"
		}
	case r < 6:
		op := []string{"+", "-", "*"}[rng.Intn(3)]
		return "(" + randomPE(rng, depth+1) + " " + op + " " + randomPE(rng, depth+1) + ")"
	case r < 8:
		cond := []string{"A[i] > 0.", "i < 8", "B[i] < A[i]"}[rng.Intn(3)]
		return "if " + cond + " then " + randomPE(rng, depth+1) + " else " + randomPE(rng, depth+1) + " endif"
	default:
		return "let v : real := " + randomPE(rng, depth+1) + " in (v + " + randomPE(rng, depth+1) + ") endlet"
	}
}
