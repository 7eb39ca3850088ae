package machine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/value"
)

// TestPreparedInputsOverride pins input immutability on the packet-level
// machine: Config.Inputs rebinds a source cell's stream per run without
// writing the graph, so one Prepared (one cached artifact) serves
// different submissions concurrently.
func TestPreparedInputsOverride(t *testing.T) {
	g, want := fig2(16)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}

	base, err := p.Run(Config{PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Outputs["out"] {
		if v.AsReal() != want[i] {
			t.Fatalf("baseline out[%d] = %v, want %v", i, v, want[i])
		}
	}

	ones := make([]float64, 16)
	bs := make([]float64, 16)
	for i := range ones {
		ones[i] = 1
		bs[i] = 3 - float64(i)*0.5
	}
	over, err := p.Run(Config{PEs: 2, Inputs: map[string][]value.Value{"a": value.Reals(ones)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range over.Outputs["out"] {
		y := 1 * bs[i]
		if exp := (y + 2) * (y - 3); v.AsReal() != exp {
			t.Fatalf("override out[%d] = %v, want %v", i, v, exp)
		}
	}

	// The shared graph is untouched: the baseline rerun is byte-identical.
	again, err := p.Run(Config{PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outputs, base.Outputs) || again.Cycles != base.Cycles {
		t.Fatal("override leaked into the shared graph: baseline run changed")
	}
}

// TestPreparedUnknownInputLabel pins the validation error for an override
// that names no source cell.
func TestPreparedUnknownInputLabel(t *testing.T) {
	g, _ := fig2(4)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(Config{Inputs: map[string][]value.Value{"nope": value.Reals([]float64{1})}})
	if err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
		t.Fatalf("err = %v, want unknown-label refusal", err)
	}
}

// TestPreparedArenaRunsIdentical pins the pooled run arena: sequential
// runs recycle cell and token storage, concurrent runs each draw their
// own arena, and every run stays byte-identical to the cold-arena first
// run — the machine half of the cache-hit identity contract.
func TestPreparedArenaRunsIdentical(t *testing.T) {
	g, _ := fig2(32)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PEs: 4, FUs: 2, AMs: 2}
	ref, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		res, err := p.Run(cfg)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles ||
			!reflect.DeepEqual(res.Packets, ref.Packets) || !reflect.DeepEqual(res.PEBusy, ref.PEBusy) {
			t.Fatalf("rep %d: pooled run diverged from cold run", rep)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(cfg)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles {
				errs <- fmt.Errorf("concurrent pooled run diverged from cold run")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedBatchInputsMerge pins the batched path: Config.Inputs is
// the base binding every lane sees, and LaneInputs[l] overrides it per
// lane — lane 0 always consumes the base streams byte-identically.
func TestPreparedBatchInputsMerge(t *testing.T) {
	g, _ := fig2(8)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	twos := make([]float64, 8)
	threes := make([]float64, 8)
	for i := range twos {
		twos[i] = 2
		threes[i] = 3
	}
	base := map[string][]value.Value{"a": value.Reals(twos)}
	lanes := make([]map[string][]value.Value, 3)
	lanes[2] = map[string][]value.Value{"a": value.Reals(threes)}

	res, err := p.Run(Config{PEs: 2, Batch: 3, Inputs: base, LaneInputs: lanes})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := p.Run(Config{PEs: 2, Inputs: base})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Lanes[0].Outputs, scalar.Outputs) {
		t.Fatal("lane 0 diverged from the scalar run over the base inputs")
	}
	if !reflect.DeepEqual(res.Lanes[1].Outputs, scalar.Outputs) {
		t.Fatal("lane 1 (no override) did not consume the base inputs")
	}
	if reflect.DeepEqual(res.Lanes[2].Outputs, scalar.Outputs) {
		t.Fatal("lane 2 override was ignored")
	}
}

// TestSteadyStateAllocationsFlat pins that a warm Prepared run's
// allocations are set-up only: running 32 times as many elements through
// the same graph may grow a few buffers a few more times, but nothing the
// cycle loop does allocates per cycle, per packet or per firing.
func TestSteadyStateAllocationsFlat(t *testing.T) {
	for _, net := range []NetworkKind{Crossbar, Butterfly} {
		allocs := func(n int) float64 {
			p, err := Prepare(wideGraph(8, n))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{PEs: 8, FUs: 4, AMs: 4, Network: net}
			return testing.AllocsPerRun(2, func() {
				if _, err := p.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(128), allocs(4096)
		t.Logf("%v: %.0f allocs per run at n=128, %.0f at n=4096", net, small, large)
		if large > small+16 {
			t.Errorf("%v: %.0f allocs per run at n=4096 against %.0f at n=128: the cycle loop allocates", net, large, small)
		}
	}
}
