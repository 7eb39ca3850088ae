package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"staticpipe/internal/machine"
	"staticpipe/internal/place"
)

// TestPlacementSweepRandom pins the placement half of the identity
// contract: cell → PE mapping decides where cells retire and which packets
// cross the routing network, never what a run computes. Random compiled
// programs run under every placement strategy — including the min-cost
// mapping from package place — and must produce byte-identical output
// streams; within a fixed placement, every observable Result field must be
// byte-identical under batching.
func TestPlacementSweepRandom(t *testing.T) {
	n := 5
	if testing.Short() {
		n = 2
	}
	const pes = 4
	base := machine.Config{PEs: pes, FUs: 2, AMs: 2}
	rng := rand.New(rand.NewSource(1983))
	for i := 0; i < n; i++ {
		src, inputs := randomProgram(rng, 6+rng.Intn(6))
		u, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		if err := u.Compiled.SetInputs(inputs); err != nil {
			t.Fatal(err)
		}
		pl, err := place.Plan(u.Compiled.Graph, place.Options{PEs: pes})
		if err != nil {
			t.Fatalf("program %d: plan: %v", i, err)
		}
		variants := []struct {
			name string
			cfg  machine.Config
		}{
			{"bystage", withAssign(base, machine.ByStage, nil)},
			{"random", withAssign(base, machine.Random, nil)},
			{"hotspot", withAssign(base, machine.HotSpot, nil)},
			{"mincost", withAssign(base, machine.Placed, pl.PE)},
		}
		var refOutputs any
		for _, v := range variants {
			t.Run(fmt.Sprintf("prog%d/%s", i, v.name), func(t *testing.T) {
				seq, err := machine.Run(u.Compiled.Graph, v.cfg)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				if !seq.Clean {
					t.Fatalf("did not drain: %v", seq.Stalled)
				}
				// Output value streams are dataflow-determined: identical
				// across every placement. (Cycle counts and arrival stamps
				// legitimately differ — co-located cells exchange packets
				// on the 1-cycle local path instead of the network.)
				if refOutputs == nil {
					refOutputs = seq.Outputs
				} else if !reflect.DeepEqual(refOutputs, seq.Outputs) {
					t.Fatalf("outputs diverge from the first placement's")
				}
				// Batching must leave lane 0's full result — arrivals,
				// cycles, packet counts, busy counters — untouched,
				// placement included (each lane simulates one placed
				// machine instance).
				cfg := v.cfg
				cfg.Batch = 4
				bat, err := machine.Run(u.Compiled.Graph, cfg)
				if err != nil {
					t.Fatalf("B=4: %v", err)
				}
				requireSamePlacedResult(t, seq, bat)
			})
		}
	}
}

func withAssign(cfg machine.Config, a machine.Assignment, placement []int) machine.Config {
	cfg.Assign = a
	cfg.Placement = placement
	cfg.Seed = 3 // drives Random
	return cfg
}

func requireSamePlacedResult(t *testing.T, seq, got *machine.Result) {
	t.Helper()
	const tag = "B=4"
	if seq.Cycles != got.Cycles {
		t.Errorf("%s: cycles %d, sequential %d", tag, got.Cycles, seq.Cycles)
	}
	if !reflect.DeepEqual(seq.Outputs, got.Outputs) {
		t.Errorf("%s: outputs diverge", tag)
	}
	if !reflect.DeepEqual(seq.Arrivals, got.Arrivals) {
		t.Errorf("%s: arrival streams diverge", tag)
	}
	if !reflect.DeepEqual(seq.Packets, got.Packets) || seq.TotalPackets != got.TotalPackets || seq.AMPackets != got.AMPackets {
		t.Errorf("%s: packet statistics diverge", tag)
	}
	if !reflect.DeepEqual(seq.PEBusy, got.PEBusy) || !reflect.DeepEqual(seq.FUBusy, got.FUBusy) {
		t.Errorf("%s: busy counters diverge", tag)
	}
	if seq.Clean != got.Clean || !reflect.DeepEqual(seq.Stalled, got.Stalled) {
		t.Errorf("%s: drain state diverges: clean %v/%v stalled %v/%v",
			tag, got.Clean, seq.Clean, got.Stalled, seq.Stalled)
	}
}
