package progs

import (
	"testing"

	"staticpipe/internal/core"
)

// TestAllProgramsCompileAndValidate compiles every bundled program,
// cross-checks the compiled graph against the reference interpreter, and
// confirms the full-pipelining headline where it applies.
func TestAllProgramsCompileAndValidate(t *testing.T) {
	for _, p := range []Program{
		Fig2(64), Fig4(48), Fig5(64), Example1(32), Example2(32), Fig3(32), Weather(40),
	} {
		t.Run(p.Name, func(t *testing.T) {
			u, err := core.CompileArtifact(p.Source, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Validate(p.Inputs, 1e-9); err != nil {
				t.Fatal(err)
			}
			res, err := u.Run(core.Binding{}, p.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			// The paper's own figures all sustain the maximum rate II = 2.
			// The weather kernel composes a data-dependent conditional
			// block with a deep recurrence consumer; runs of same-branch
			// tokens briefly backpressure the shared field stream under
			// the one-token-per-arc discipline, costing ~10% of the
			// maximum rate (measured II ≈ 2.2; see EXPERIMENTS.md).
			wantII := 2.0
			if p.Name == "weather" {
				wantII = 2.3
			}
			if ii := res.II(p.Output); ii > wantII {
				t.Errorf("%s: II = %v, want ≤ %v", p.Name, ii, wantII)
			}
			if !res.Exec.Clean {
				t.Errorf("%s: not clean: %v", p.Name, res.Exec.Stalled)
			}
		})
	}
}

func TestInputsMatchDeclaredRanges(t *testing.T) {
	for _, p := range []Program{Fig2(16), Fig4(16), Fig5(16), Example1(16), Example2(16), Fig3(16), Weather(16)} {
		u, err := core.CompileArtifact(p.Source, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, in := range u.Checked.Inputs {
			vals, ok := p.Inputs[in.Name]
			if !ok {
				t.Errorf("%s: missing input %s", p.Name, in.Name)
				continue
			}
			if len(vals) != in.Len() {
				t.Errorf("%s: input %s has %d values, declared %d", p.Name, in.Name, len(vals), in.Len())
			}
		}
		if _, ok := u.Compiled.Outputs[p.Output]; !ok {
			t.Errorf("%s: output %s not declared", p.Name, p.Output)
		}
	}
}

func TestSynth(t *testing.T) {
	for _, kind := range []string{"ramp", "sin", "const", "alt", "anything-else"} {
		vs := Synth(kind, 6)
		if len(vs) != 6 {
			t.Fatalf("%s: %d values", kind, len(vs))
		}
	}
	if Synth("const", 3)[2].AsReal() != 1 {
		t.Error("const fill")
	}
	if Synth("alt", 4)[1].AsReal() != -1 {
		t.Error("alt fill")
	}
	if Synth("ramp", 4)[3].AsReal() != 3 {
		t.Error("ramp fill")
	}
}
