package core

import (
	"fmt"
	"math/rand"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/value"
)

// TestCrossSimulatorRandom is the cross-simulator differential check:
// random pipe-structured programs are compiled once and executed both on
// the firing-rule simulator (exec) and on the packet-level machine
// simulator, which must agree exactly — identical output streams at every
// sink (both kernels evaluate with the same ApplyOp, so equality is exact,
// not approximate) and complete drainage on both. It extends
// machine.TestMachineMatchesExec from hand-built graphs to the whole
// compiler output space the random program generator covers.
func TestCrossSimulatorRandom(t *testing.T) {
	n := 5
	if testing.Short() {
		n = 2
	}
	machineConfigs := []machine.Config{
		{PEs: 1, AMs: 1},
		{PEs: 4, FUs: 2, AMs: 2},
		{PEs: 8, FUs: 4, AMs: 3, Network: machine.Butterfly},
		{PEs: 3, Assign: machine.ByStage, SplitNetworks: true},
	}
	rng := rand.New(rand.NewSource(1983)) // the paper's publication year
	for i := 0; i < n; i++ {
		src, inputs := randomProgram(rng, 6+rng.Intn(6))
		u, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		eres, err := u.Run(Binding{}, inputs)
		if err != nil {
			t.Fatalf("program %d exec: %v\n%s", i, err, src)
		}
		if !eres.Exec.Clean {
			t.Fatalf("program %d exec did not drain: %v", i, eres.Exec.Stalled)
		}
		for ci, cfg := range machineConfigs {
			t.Run(fmt.Sprintf("prog%d/cfg%d", i, ci), func(t *testing.T) {
				if err := u.Compiled.SetInputs(inputs); err != nil {
					t.Fatal(err)
				}
				mres, err := machine.Run(u.Compiled.Graph, cfg)
				if err != nil {
					if mres != nil {
						t.Fatalf("machine: %v\n%s", err, machine.Describe(mres))
					}
					t.Fatal(err)
				}
				if !mres.Clean {
					t.Fatalf("machine did not drain: %v", mres.Stalled)
				}
				for name, arr := range eres.Outputs {
					want := arr.Elems
					got := mres.Output(name)
					if len(got) != len(want) {
						t.Fatalf("output %s: machine %d elements, exec %d", name, len(got), len(want))
					}
					for k := range want {
						if !value.Equal(got[k], want[k]) {
							t.Errorf("output %s[%d]: machine %v, exec %v", name, k, got[k], want[k])
						}
					}
				}
				// Both kernels must agree the pipeline was fully pipelined
				// or not — the IIs differ (machine cycles include network
				// transit) but output counts and arrival ordering must not.
				for name := range eres.Outputs {
					marr := mres.Arrivals[name]
					for k := 1; k < len(marr); k++ {
						if marr[k] < marr[k-1] {
							t.Errorf("output %s: machine arrivals out of order at %d", name, k)
						}
					}
				}
			})
		}
	}
}

// TestCrossSimulatorPartialResult checks both kernels surface partial
// results with stall diagnostics when MaxCycles is exhausted mid-stream.
func TestCrossSimulatorPartialResult(t *testing.T) {
	src, inputs := randomProgram(rand.New(rand.NewSource(7)), 8)
	u, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Compiled.SetInputs(inputs); err != nil {
		t.Fatal(err)
	}
	eres, err := exec.Run(u.Compiled.Graph, exec.Options{MaxCycles: 10})
	if err == nil {
		t.Fatal("exec: expected MaxCycles error")
	}
	if eres == nil {
		t.Fatal("exec: no partial result alongside the error")
	}
	if eres.Cycles != 10 {
		t.Errorf("exec partial result at %d cycles, want 10", eres.Cycles)
	}
	if eres.Clean || len(eres.Stalled) == 0 {
		t.Errorf("exec partial result has no stall diagnostics: clean=%v stalled=%v", eres.Clean, eres.Stalled)
	}
	mres, err := machine.Run(u.Compiled.Graph, machine.Config{MaxCycles: 10})
	if err == nil {
		t.Fatal("machine: expected MaxCycles error")
	}
	if mres == nil {
		t.Fatal("machine: no partial result alongside the error")
	}
	if mres.Cycles != 10 {
		t.Errorf("machine partial result at %d cycles, want 10", mres.Cycles)
	}
	if mres.Clean || len(mres.Stalled) == 0 {
		t.Errorf("machine partial result has no stall diagnostics: clean=%v stalled=%v", mres.Clean, mres.Stalled)
	}
}
