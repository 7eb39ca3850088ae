package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// diffPassLists are the pass pipelines the differential quick-check sweeps:
// every combination and ordering of the optional structural passes around
// the two balancers, plus the default ("") and empty ("none") pipelines.
var diffPassLists = []string{
	"",
	"none",
	"dedup",
	"balance",
	"balance-naive",
	"dedup,balance",
	"dedup,balance-naive",
	"balance,dedup",
}

// checkAfterEachPass recompiles src with the given pass list, and after
// every pass binds the inputs, executes the live graph on the firing-rule
// simulator, and compares each sink's stream against the reference outputs
// — the semantic-equivalence harness of the pass pipeline.
//
// The contract every pass must satisfy is PREFIX equivalence: a run of any
// intermediate graph produces a prefix of the reference output at every
// sink, never a wrong value. Intermediate graphs are not required to drain
// completely — an unbalanced graph whose cells were shared by dedup can
// stall on the acknowledge coupling. The FINAL graph of every pipeline must
// produce the complete reference output: the pass manager appends a
// balancing pass whenever dedup would otherwise run unbalanced, so no
// configuration is allowed to leave a stall-prone graph.
func checkAfterEachPass(t *testing.T, src, passList string, inputs map[string][]value.Value, want map[string][]value.Value) {
	t.Helper()
	var firstErr error
	snapshot := func(pass string, g *graph.Graph) {
		if firstErr != nil {
			return
		}
		// Bind input streams by source label: graph-rebuilding passes
		// invalidate node identity but labels are stable.
		for _, n := range g.Nodes() {
			if n.Op != graph.OpSource {
				continue
			}
			if vals, ok := inputs[n.Label]; ok {
				n.Stream = vals
			}
		}
		if err := runPrefix(g, want); err != nil {
			firstErr = fmt.Errorf("after %s: %w", pass, err)
			return
		}
		// Unbind so later passes see placeholder streams, as in a normal
		// compile.
		for _, n := range g.Nodes() {
			if n.Op == graph.OpSource {
				if _, ok := inputs[n.Label]; ok {
					n.Stream = []value.Value{}
				}
			}
		}
	}
	u, err := CompileArtifact(src, Options{Passes: passList, VerifyEach: true, Snapshot: snapshot})
	if err != nil {
		t.Fatalf("passes=%q: %v", passList, err)
	}
	if firstErr != nil {
		t.Fatalf("passes=%q: %v", passList, firstErr)
	}
	if err := u.Validate(inputs, 1e-9); err != nil {
		t.Fatalf("passes=%q final graph: %v", passList, err)
	}
}

// runPrefix executes the graph and checks every expected output stream got
// a prefix of its reference values (wrong values fail; incomplete drainage
// does not).
func runPrefix(g *graph.Graph, want map[string][]value.Value) error {
	res, err := exec.Run(g, exec.Options{})
	if err != nil {
		if res != nil {
			return fmt.Errorf("%w\n%s", err, exec.Describe(res))
		}
		return err
	}
	for name, w := range want {
		got := res.Output(name)
		if len(got) > len(w) {
			return fmt.Errorf("output %s has %d elements, reference has %d", name, len(got), len(w))
		}
		for i := range got {
			if !value.Close(got[i], w[i], 1e-9) {
				return fmt.Errorf("output %s[%d] = %v, want %v", name, i, got[i], w[i])
			}
		}
	}
	return nil
}

// TestDifferentialFig3 runs the after-every-pass equivalence harness over
// the paper's Fig 3 program for every pass-list permutation.
func TestDifferentialFig3(t *testing.T) {
	inputs := fig3Inputs(16)
	ref, err := referenceOutputs(fig3Src, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range diffPassLists {
		t.Run("passes="+pl, func(t *testing.T) {
			checkAfterEachPass(t, fig3Src, pl, inputs, ref)
		})
	}
}

// TestDifferentialRandom is the differential quick-check: random
// pipe-structured programs × pass-list permutations, with per-pass
// verification and per-pass semantic equivalence against the reference
// interpreter.
func TestDifferentialRandom(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 2
	}
	rng := rand.New(rand.NewSource(233)) // the paper's memo number, for reproducibility
	for i := 0; i < n; i++ {
		src, inputs := randomProgram(rng, 6+rng.Intn(6))
		ref, err := referenceOutputs(src, inputs)
		if err != nil {
			t.Fatalf("program %d reference: %v\n%s", i, err, src)
		}
		for _, pl := range diffPassLists {
			t.Run(fmt.Sprintf("prog%d/passes=%s", i, pl), func(t *testing.T) {
				checkAfterEachPass(t, src, pl, inputs, ref)
			})
		}
	}
}

// referenceOutputs evaluates the program with the AST interpreter and
// flattens each output array to its element stream.
func referenceOutputs(src string, inputs map[string][]value.Value) (map[string][]value.Value, error) {
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		return nil, err
	}
	arrs, err := u.Reference(inputs)
	if err != nil {
		return nil, err
	}
	out := map[string][]value.Value{}
	for name, a := range arrs {
		out[name] = a.Elems
	}
	return out, nil
}

// TestVerifyTier1Options runs the deep verifier over the graphs the
// construction options and the pass-list pipelines produce for the Fig 3
// program, before and after FIFO expansion.
func TestVerifyTier1Options(t *testing.T) {
	for _, o := range []Options{
		{},
		{ForIterScheme: 1},
		{ForIterScheme: 2},
		{LiteralControl: true},
		{Passes: "dedup,balance"},
		{Passes: "balance-naive"},
		{Passes: "none"},
		{Passes: "arm-slack=2,balance"},
	} {
		u, err := CompileArtifact(fig3Src, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if err := u.Compiled.Graph.Verify(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
		if err := u.Compiled.Graph.ExpandFIFOs().Verify(); err != nil {
			t.Errorf("%+v expanded: %v", o, err)
		}
	}
}

// TestDefaultPassListSpellings pins the two pipelines spelled without pass
// names: "" compiles byte for byte what "balance" does, under every
// construction option, and "none" runs no pass at all. A list that names
// no pass, or combines "none" with passes, fails the compile instead of
// silently meaning either.
func TestDefaultPassListSpellings(t *testing.T) {
	marshal := func(o Options) []byte {
		t.Helper()
		u, err := CompileArtifact(fig3Src, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		b, err := u.Compiled.Graph.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, o := range []Options{{}, {ForIterScheme: foriter.Todd}, {LiteralControl: true}} {
		bal := o
		bal.Passes = "balance"
		if !bytes.Equal(marshal(o), marshal(bal)) {
			t.Errorf("%+v: Passes \"\" and \"balance\" compile different graphs", o)
		}
	}
	none, err := CompileArtifact(fig3Src, Options{Passes: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if none.Compiled.Plan != nil || len(none.PassStats()) != 0 {
		t.Errorf("none ran passes %v", none.PassStats())
	}
	for _, bad := range []string{",", "none,balance", "dedup,"} {
		if _, err := CompileArtifact(fig3Src, Options{Passes: bad}); err == nil {
			t.Errorf("Passes %q compiled", bad)
		}
	}
}
