package staticpipe

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"staticpipe/internal/progs"
)

// TestFacadeQuickstart exercises the public API end to end, as the README
// quick start does.
func TestFacadeQuickstart(t *testing.T) {
	prog := progs.Example1(12)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{}, prog.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !FullyPipelined(res, "A") {
		t.Errorf("II = %v", res.II("A"))
	}
	if err := u.Validate(prog.Inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
	ii, err := PredictII(u)
	if err != nil {
		t.Fatal(err)
	}
	if ii != 2 {
		t.Errorf("predicted II = %v", ii)
	}
	a := res.Outputs["A"]
	if got := Floats(a.Elems); len(got) != 14 {
		t.Errorf("A has %d elements", len(got))
	}
}

func TestFacadeMachine(t *testing.T) {
	prog := progs.Fig2(32)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := RunMachine(u, prog.Inputs, MachineConfig{PEs: 4, AMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := u.Run(Binding{}, prog.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	mv, ev := mres.Output("Y"), eres.Outputs["Y"].Elems
	if len(mv) != len(ev) {
		t.Fatalf("machine %d vs exec %d outputs", len(mv), len(ev))
	}
	for i := range ev {
		if mv[i] != ev[i] {
			t.Errorf("Y[%d]: machine %v, exec %v", i, mv[i], ev[i])
		}
	}
}

// TestRunMachineNeverWritesProgram pins that RunMachine binds its inputs
// per run: the compiled graph marshals to the same bytes before and after,
// and input names the program does not declare are ignored.
func TestRunMachineNeverWritesProgram(t *testing.T) {
	prog := progs.Fig2(32)
	p, err := Compile(prog.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Compiled.Graph.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string][]Value{"undeclared": Reals([]float64{1})}
	for name, vs := range prog.Inputs {
		extra[name] = vs
	}
	if _, err := RunMachine(p, extra, MachineConfig{PEs: 4, AMs: 2}); err != nil {
		t.Fatal(err)
	}
	after, err := p.Compiled.Graph.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("RunMachine wrote the compiled graph")
	}
}

func TestFacadeSchemeConstants(t *testing.T) {
	prog := progs.Example2(16)
	todd, err := Compile(prog.Source, Options{ForIterScheme: ForIterTodd})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(prog.Source, Options{ForIterScheme: ForIterComp})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := todd.Run(Binding{}, prog.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := comp.Run(Binding{}, prog.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rt.II("X") != 3 || rc.II("X") != 2 {
		t.Errorf("II todd=%v companion=%v", rt.II("X"), rc.II("X"))
	}
}

// TestFacadeEmptyInputs checks the degenerate zero-length binding through
// the public API: a clean length error, not a hang or panic.
func TestFacadeEmptyInputs(t *testing.T) {
	prog := progs.Example1(12)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Run(Binding{}, map[string][]Value{"C": {}}); err == nil {
		t.Error("zero-length input stream accepted")
	}
}

// TestFacadePassOptions drives an explicit pass list with per-pass
// verification through the public API.
func TestFacadePassOptions(t *testing.T) {
	names := PassNames()
	if len(names) < 5 {
		t.Fatalf("pass registry too small: %v", names)
	}
	prog := progs.Example1(12)
	u, err := Compile(prog.Source, Options{Passes: "dedup,balance", VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	var stats []PassStat = u.PassStats()
	if len(stats) != 2 || stats[0].Name != "dedup" || stats[1].Name != "balance" {
		t.Fatalf("pass stats = %v", stats)
	}
	if err := u.Validate(prog.Inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeValueHelpers(t *testing.T) {
	vs := Ints([]int64{1, 2})
	if vs[1].AsInt() != 2 {
		t.Error("Ints")
	}
	fs := Floats(Reals([]float64{1.5}))
	if fs[0] != 1.5 {
		t.Error("Floats round trip")
	}
}

// TestTestdataCorpus compiles and validates every .val program shipped in
// testdata/ with synthetic inputs — the same files the dfc and dfsim tools
// are documented against.
func TestTestdataCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.val")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			u, err := Compile(string(src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]Value{}
			for _, in := range u.Checked.Inputs {
				inputs[in.Name] = progs.Synth("sin", in.Len())
			}
			if err := u.Validate(inputs, 1e-9); err != nil {
				t.Fatal(err)
			}
		})
	}
}
