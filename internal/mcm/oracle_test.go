package mcm_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/progs"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// reference runs the reference copy (reference_test.go) on edges: the
// ratio, the error and one critical cycle.
func reference(n int, edges []mcm.Edge) (mcm.Result, []int, error) {
	ref := make([]Edge, len(edges))
	for i, e := range edges {
		ref[i] = Edge(e)
	}
	r, err := MaxRatio(n, ref)
	if err != nil || !r.HasCycle {
		return mcm.Result(r), nil, err
	}
	return mcm.Result(r), CriticalNodes(n, ref, r), nil
}

// TestSolverMatchesReference: on random constraint graphs — rings with
// chords, skewed acknowledge pairs, self-loops, zero-token rings — MaxRatio
// and CriticalNodes give the reference's ratio, error and critical cycle.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var deadlocks, cyclic int
	for trial := 0; trial < 5000; trial++ {
		n, edges := mcm.RandomConstraintGraph(rng)
		want, wantCyc, werr := reference(n, edges)
		got, err := mcm.MaxRatio(n, edges)
		if errText(err) != errText(werr) || got != want {
			t.Fatalf("trial %d (n=%d, edges %v): %v (%v), reference %v (%v)", trial, n, edges, got, err, want, werr)
		}
		if err != nil {
			deadlocks++
			continue
		}
		if got.HasCycle {
			cyclic++
		}
		if cyc := mcm.CriticalNodes(n, edges, got); !reflect.DeepEqual(cyc, wantCyc) {
			t.Fatalf("trial %d (n=%d, edges %v): critical cycle %v, reference %v", trial, n, edges, cyc, wantCyc)
		}
	}
	if deadlocks == 0 || cyclic < 1000 {
		t.Errorf("generator coverage too thin: %d deadlocks, %d cyclic graphs", deadlocks, cyclic)
	}
}

// genProgram is a random chain of blocks over 32 elements: foralls whose
// bodies mix stencils of the input, earlier blocks and conditionals, and
// for-iter recurrences over two earlier arrays.
func genProgram(rng *rand.Rand, blocks int) string {
	var b strings.Builder
	b.WriteString("param m = 32;\ninput A : array[real] [0, m+1];\ninput W : array[real] [0, m+1];\n")
	avail := []string{"A", "W"}
	pick := func() string { return avail[rng.Intn(len(avail))] }
	term := func() string {
		switch rng.Intn(4) {
		case 0:
			return "A[i" + []string{"-1", "", "+1"}[rng.Intn(3)] + "]"
		case 1:
			return fmt.Sprintf("%.2f", rng.Float64())
		default:
			return pick() + "[i]"
		}
	}
	for k := 0; k < blocks; k++ {
		name := fmt.Sprintf("B%d", k)
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, `%s : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := 0.5*%s[i]*T[i-1] + %s[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
`, name, pick(), pick())
		case 1:
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct if %s > 0. then %s * %s else %s endif\n  endall;\n",
				name, term(), term(), term(), term())
		default:
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct %s %s (%s + %s)\n  endall;\n",
				name, term(), []string{"+", "-", "*"}[rng.Intn(3)], term(), term())
		}
		avail = append(avail, name)
	}
	fmt.Fprintf(&b, "output B%d;\n", blocks-1)
	return b.String()
}

// TestRealGraphsMatchReference holds Critical, which runs MaxRatio and the
// critical-cycle search on one shared solver, and PredictTable to the
// reference on the timing graphs of the paper's programs and 24 generated
// ones, balanced and unbalanced, under Todd's and the companion for-iter
// schemes.
func TestRealGraphsMatchReference(t *testing.T) {
	srcs := map[string]string{}
	for _, p := range []progs.Program{progs.Fig2(64), progs.Fig4(64), progs.Fig5(64),
		progs.Example1(64), progs.Example2(64), progs.Fig3(64), progs.Weather(64)} {
		srcs[p.Name] = p.Source
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 24; k++ {
		srcs[fmt.Sprintf("gen%02d", k)] = genProgram(rng, 2+rng.Intn(10))
	}
	modes := map[string]core.Options{
		"default":   {},
		"none":      {Passes: "none"},
		"todd":      {ForIterScheme: foriter.Todd},
		"companion": {ForIterScheme: foriter.Companion},
	}
	graphs := 0
	for name, src := range srcs {
		for mode, opts := range modes {
			art, err := core.CompileArtifact(src, opts)
			if err != nil {
				t.Fatalf("%s (%s): %v\n%s", name, mode, err, src)
			}
			tab, err := graph.Lower(art.Compiled.Graph)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, mode, err)
			}
			want, wantCyc, werr := reference(len(tab.Cells), mcm.TimingEdges(tab))
			got, ids, err := mcm.Critical(tab)
			cyc := make([]int, len(ids))
			for i, id := range ids {
				cyc[i] = int(id)
			}
			if len(ids) == 0 {
				cyc = nil
			}
			if errText(err) != errText(werr) || got != want || !reflect.DeepEqual(cyc, wantCyc) {
				t.Fatalf("%s (%s): %v, cycle %v (%v); reference %v, cycle %v (%v)", name, mode, got, cyc, err, want, wantCyc, werr)
			}
			if pred, err := mcm.PredictTable(tab); errText(err) != errText(werr) || pred != want {
				t.Fatalf("%s (%s): PredictTable %v (%v), reference %v (%v)", name, mode, pred, err, want, werr)
			}
			graphs++
		}
	}
	t.Logf("%d timing graphs", graphs)
}
