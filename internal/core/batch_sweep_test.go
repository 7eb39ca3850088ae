package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/value"
)

// TestBatchSweepRandom extends the differential harness across the batched
// engines: random compiled programs run on both simulator cores at every
// lane count in the contract sweep (crossed, on the exec core, with
// lane-sharding worker counts), and lane 0's view — and at B>1 every other
// lane's, since all lanes consume the same bound streams here — must be
// byte-identical to the scalar run of the same core. The machine has no
// worker axis, so its batched run is checked once per lane count, in the
// W1 subtest.
func TestBatchSweepRandom(t *testing.T) {
	batches := []int{1, 4, 16}
	n := 3
	if testing.Short() {
		n = 2
	}
	rng := rand.New(rand.NewSource(2049))
	for i := 0; i < n; i++ {
		src, inputs := randomProgram(rng, 6+rng.Intn(6))
		u, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, src)
		}
		if err := u.Compiled.SetInputs(inputs); err != nil {
			t.Fatal(err)
		}
		eseq, err := exec.Run(u.Compiled.Graph, exec.Options{})
		if err != nil {
			t.Fatalf("program %d exec: %v\n%s", i, err, src)
		}
		mcfg := machine.Config{PEs: 4, FUs: 2, AMs: 2}
		mseq, err := machine.Run(u.Compiled.Graph, mcfg)
		if err != nil {
			t.Fatalf("program %d machine: %v\n%s", i, err, src)
		}
		for _, b := range batches {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("prog%d/B%d/W%d", i, b, w), func(t *testing.T) {
					ebat, err := exec.Run(u.Compiled.Graph, exec.Options{Batch: b, Workers: w})
					if err != nil {
						t.Fatalf("exec B=%d W=%d: %v", b, w, err)
					}
					lanes := 1
					if b > 1 {
						lanes = b
					}
					for l := 0; l < lanes; l++ {
						lv := ebat.Lane(l)
						checkFields(t, fmt.Sprintf("exec W=%d lane%d", w, l), map[string][2]any{
							"cycles":   {eseq.Cycles, lv.Cycles},
							"firings":  {eseq.Firings, lv.Firings},
							"outputs":  {eseq.Outputs, lv.Outputs},
							"arrivals": {eseq.Arrivals, lv.Arrivals},
							"clean":    {eseq.Clean, lv.Clean},
							"stalled":  {eseq.Stalled, lv.Stalled},
						})
					}
					if w != 1 {
						return
					}
					bcfg := mcfg
					bcfg.Batch = b
					mbat, err := machine.Run(u.Compiled.Graph, bcfg)
					if err != nil {
						t.Fatalf("machine B=%d: %v", b, err)
					}
					checkFields(t, "machine-top", map[string][2]any{
						"cycles":   {mseq.Cycles, mbat.Cycles},
						"outputs":  {mseq.Outputs, mbat.Outputs},
						"arrivals": {mseq.Arrivals, mbat.Arrivals},
						"packets":  {mseq.Packets, mbat.Packets},
						"pe-busy":  {mseq.PEBusy, mbat.PEBusy},
						"fu-busy":  {mseq.FUBusy, mbat.FUBusy},
						"clean":    {mseq.Clean, mbat.Clean},
						"stalled":  {mseq.Stalled, mbat.Stalled},
					})
					for l := 1; l < b; l++ {
						lr := mbat.Lanes[l]
						checkFields(t, fmt.Sprintf("machine-lane%d", l), map[string][2]any{
							"cycles":  {mseq.Cycles, lr.Cycles},
							"outputs": {mseq.Outputs, lr.Outputs},
							"packets": {mseq.Packets, lr.Packets},
							"clean":   {mseq.Clean, lr.Clean},
							"stalled": {mseq.Stalled, lr.Stalled},
						})
					}
				})
			}
		}
	}
}

// checkFields reports every named field whose scalar-run and batched-run
// values differ.
func checkFields(t *testing.T, engine string, fields map[string][2]any) {
	t.Helper()
	for name, pair := range fields {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s: %s diverges from the scalar run\nscalar: %v\nbatched: %v",
				engine, name, pair[0], pair[1])
		}
	}
}

// rotStream rotates a stream by k positions — cheap distinct per-lane
// inputs of the required declared length.
func rotStream(vs []value.Value, k int) []value.Value {
	k = k % len(vs)
	return append(append([]value.Value(nil), vs[k:]...), vs[:k]...)
}

// TestRunBatchFacade drives the core facade end to end: Fig 3 compiled
// once, four lanes fed distinct input arrays, every lane validated against
// the reference interpreter on its own inputs, and lane 0 against a scalar
// Run of the baseline inputs.
func TestRunBatchFacade(t *testing.T) {
	const b = 4
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := fig3Inputs(16)
	laneIn := make([]map[string][]value.Value, b)
	for l := 1; l < b; l++ {
		laneIn[l] = map[string][]value.Value{
			"B": rotStream(base["B"], l),
			"C": rotStream(base["C"], 2*l),
		}
	}
	res, err := u.RunBatch(Binding{Batch: b, Workers: 2}, base, laneIn)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lanes) != b {
		t.Fatalf("RunBatch returned %d lanes, want %d", len(res.Lanes), b)
	}

	seq, err := u.Run(Binding{}, base)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < b; l++ {
		inputs := base
		if l > 0 {
			inputs = laneIn[l]
		}
		want, err := u.Reference(inputs)
		if err != nil {
			t.Fatalf("lane %d reference: %v", l, err)
		}
		got := res.Lanes[l]
		for name, w := range want {
			g, ok := got.Outputs[name]
			if !ok {
				t.Fatalf("lane %d: output %s missing", l, name)
			}
			for i := range w.Elems {
				if !value.Close(g.Elems[i], w.Elems[i], 1e-9) {
					t.Fatalf("lane %d: %s[%d] = %v, reference %v", l, name, i, g.Elems[i], w.Elems[i])
				}
			}
		}
	}
	if got, want := res.Lanes[0].Exec.Cycles, seq.Exec.Cycles; got != want {
		t.Errorf("lane 0 ran %d cycles, scalar run %d", got, want)
	}
	if got, want := res.Lanes[0].II("X"), seq.II("X"); got != want {
		t.Errorf("lane 0 II %.3f, scalar run %.3f", got, want)
	}

	// RunBatch with no width anywhere and no lane inputs is a usage error;
	// with lane inputs it runs one lane per set, as if the width were set.
	if _, err := u.RunBatch(Binding{}, base, nil); err == nil {
		t.Error("RunBatch with no width succeeded")
	}
	implied, err := u.RunBatch(Binding{Workers: 2}, base, laneIn)
	if err != nil {
		t.Fatal(err)
	}
	if len(implied.Lanes) != b {
		t.Fatalf("RunBatch on a scalar artifact ran %d lanes for %d lane-input sets", len(implied.Lanes), b)
	}
	for l := range implied.Lanes {
		if !reflect.DeepEqual(implied.Lanes[l].Outputs, res.Lanes[l].Outputs) || implied.Lanes[l].Exec.Cycles != res.Lanes[l].Exec.Cycles {
			t.Errorf("lane %d: width from lane inputs diverges from the binding's width", l)
		}
	}
	// A lane stream of the wrong declared length is rejected up front.
	short := []map[string][]value.Value{nil, {"B": base["B"][:3]}}
	if _, err := u.RunBatch(Binding{Batch: b}, base, short); err == nil {
		t.Error("RunBatch accepted a wrong-length lane stream")
	}
}
