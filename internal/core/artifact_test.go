package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/mcm"
	"staticpipe/internal/place"
	"staticpipe/internal/value"
)

// execView is the comparable slice of an exec result: everything a caller
// can observe about what a run computed, excluding the simulated graph
// pointer.
type execView struct {
	Cycles   int
	Firings  []int
	Outputs  map[string][]value.Value
	Arrivals map[string][]int
	Clean    bool
	Stalled  []string
}

func viewOf(res *exec.Result) execView {
	return execView{
		Cycles:   res.Cycles,
		Firings:  res.Firings,
		Outputs:  res.Outputs,
		Arrivals: res.Arrivals,
		Clean:    res.Clean,
		Stalled:  res.Stalled,
	}
}

// machView is the comparable slice of a machine result.
type machView struct {
	Cycles       int
	Outputs      map[string][]value.Value
	Arrivals     map[string][]int
	Packets      map[string]int
	AMPackets    int
	TotalPackets int
	PEBusy       []int
	FUBusy       []int
	Clean        bool
	Stalled      []string
}

func machViewOf(res *machine.Result) machView {
	return machView{
		Cycles:       res.Cycles,
		Outputs:      res.Outputs,
		Arrivals:     res.Arrivals,
		Packets:      res.Packets,
		AMPackets:    res.AMPackets,
		TotalPackets: res.TotalPackets,
		PEBusy:       res.PEBusy,
		FUBusy:       res.FUBusy,
		Clean:        res.Clean,
		Stalled:      res.Stalled,
	}
}

// TestRunsNeverWriteArtifact pins the compile/run split: a run binds its
// input streams per run, so the compiled graph a cache shares marshals to
// the same bytes before and after every kind of run — scalar, batched with
// per-lane inputs, and on the packet-level machine, scalar and batched.
func TestRunsNeverWriteArtifact(t *testing.T) {
	art, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := art.Compiled.Graph.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	inputs := fig3Inputs(16)
	lanes := []map[string][]value.Value{nil, {"C": rotStream(inputs["C"], 3)}}
	mp, err := art.Machine()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := art.Run(Binding{}, inputs); return err }},
		{"RunBatch", func() error { _, err := art.RunBatch(Binding{Batch: 2}, inputs, lanes); return err }},
		{"Machine().Run", func() error { _, err := mp.Run(machine.Config{PEs: 4, Inputs: inputs}); return err }},
		{"Machine().Run batched", func() error {
			_, err := mp.Run(machine.Config{PEs: 4, Inputs: inputs, Batch: 2, LaneInputs: lanes})
			return err
		}},
	}
	for _, r := range runs {
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		after, err := art.Compiled.Graph.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s wrote the compiled graph", r.name)
		}
	}
}

// TestSharedArtifactConcurrentRuns pins the artifact-cache sharing
// contract under the race detector: one compiled artifact, run from 8
// goroutines concurrently on both engines with mixed worker counts, must
// produce the same bytes every time and never race. This is exactly what a
// cache hit does — several admitted jobs execute one resident artifact at
// once.
func TestSharedArtifactConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	src, inputs := randomProgram(rng, 8)
	art, err := CompileArtifact(src, Options{})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	ref, err := art.Run(Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := art.Machine()
	if err != nil {
		t.Fatal(err)
	}
	mref, err := mp.Run(machine.Config{PEs: 4, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 4
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if g%2 == 0 {
					res, err := art.Run(Binding{}, inputs)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: exec: %v", g, err)
						return
					}
					if !reflect.DeepEqual(viewOf(res.Exec), viewOf(ref.Exec)) {
						errs <- fmt.Errorf("goroutine %d: exec diverged from reference", g)
						return
					}
				} else {
					res, err := mp.Run(machine.Config{PEs: 4, Inputs: inputs})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: machine: %v", g, err)
						return
					}
					if !reflect.DeepEqual(machViewOf(res), machViewOf(mref)) {
						errs <- fmt.Errorf("goroutine %d: machine diverged from reference", g)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedVsFreshDifferential is the identity contract of the artifact
// cache: a run over a shared (cache-hit) artifact — including repeat runs
// that reuse pooled simulator state — must be byte-identical to a fresh
// compile-and-run of the same source, across random programs, scalar and
// batched execution, and every placement strategy of the packet-level
// machine.
func TestCachedVsFreshDifferential(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < trials; trial++ {
		src, inputs := randomProgram(rng, 6+rng.Intn(6))

		// Scalar sweep: fresh artifact vs shared artifact run repeatedly
		// (second and later runs draw pooled state).
		fresh, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		shared, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(Binding{}, inputs)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := shared.Run(Binding{}, inputs)
			if err != nil {
				t.Fatalf("trial %d rep %d: shared: %v", trial, rep, err)
			}
			if !reflect.DeepEqual(viewOf(got.Exec), viewOf(want.Exec)) {
				t.Fatalf("trial %d rep %d: shared artifact diverged from fresh compile\n%s",
					trial, rep, src)
			}
		}

		// Batched sweep: the width comes from the compile-time
		// Options.Batch that a zero Binding.Batch falls back to.
		bfresh, err := CompileArtifact(src, Options{Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		bshared, err := CompileArtifact(src, Options{Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		bwant, err := bfresh.RunBatch(Binding{}, inputs, nil)
		if err != nil {
			t.Fatalf("trial %d: fresh batch: %v", trial, err)
		}
		for rep := 0; rep < 2; rep++ {
			bgot, err := bshared.RunBatch(Binding{}, inputs, nil)
			if err != nil {
				t.Fatalf("trial %d rep %d: shared batch: %v", trial, rep, err)
			}
			if len(bgot.Lanes) != len(bwant.Lanes) {
				t.Fatalf("trial %d: lane count %d vs %d", trial, len(bgot.Lanes), len(bwant.Lanes))
			}
			for l := range bgot.Lanes {
				if !reflect.DeepEqual(viewOf(bgot.Lanes[l].Exec), viewOf(bwant.Lanes[l].Exec)) {
					t.Fatalf("trial %d rep %d: batched lane %d diverged", trial, rep, l)
				}
			}
		}

		// Machine sweep: the lazily built machine preparation must not
		// change what a run computes — every placement strategy, planned on
		// the fresh or the shared artifact's graph, byte-identical.
		const pes = 4
		pl, err := place.Plan(fresh.Compiled.Graph, place.Options{PEs: pes})
		if err != nil {
			t.Fatalf("trial %d: plan: %v", trial, err)
		}
		spl, err := place.Plan(shared.Compiled.Graph, place.Options{PEs: pes})
		if err != nil {
			t.Fatal(err)
		}
		base := machine.Config{PEs: pes, FUs: 2, AMs: 2, Inputs: inputs}
		variants := []struct {
			name   string
			assign machine.Assignment
			placed []int
		}{
			{"bystage", machine.ByStage, nil},
			{"hotspot", machine.HotSpot, nil},
			{"mincost", machine.Placed, pl.PE},
			{"mincost-shared", machine.Placed, spl.PE},
		}
		fmp, err := fresh.Machine()
		if err != nil {
			t.Fatal(err)
		}
		smp, err := shared.Machine()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			cfg := base
			cfg.Assign = v.assign
			cfg.Placement = v.placed
			want, err := fmp.Run(cfg)
			if err != nil {
				t.Fatalf("trial %d %s: fresh machine: %v", trial, v.name, err)
			}
			got, err := smp.Run(cfg)
			if err != nil {
				t.Fatalf("trial %d %s: shared machine: %v", trial, v.name, err)
			}
			if !reflect.DeepEqual(machViewOf(got), machViewOf(want)) {
				t.Fatalf("trial %d %s: shared machine diverged from fresh", trial, v.name)
			}
		}
	}
}

// TestArtifactLowersOnce pins that an artifact holds one lowered form:
// the packet machine (on every Machine call) and the rate prediction read
// the table CompileArtifact built for the exec core.
func TestArtifactLowersOnce(t *testing.T) {
	art, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := art.tab
	for i := 0; i < 2; i++ {
		mp, err := art.Machine()
		if err != nil {
			t.Fatal(err)
		}
		if mp.Table() != tab {
			t.Fatalf("Machine() call %d runs its own table", i)
		}
	}
	pred, err := art.PredictII()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := mcm.PredictTable(tab); err != nil || pred != want {
		t.Fatalf("PredictII %v, the table's %v (%v)", pred, want, err)
	}
}

// TestRunRefusesWrongElementKinds pins the element-kind check every run
// binding passes: a boolean or invalid element in a real array, or a
// number in a boolean array, is an error from Run and from one lane of
// RunBatch, never a simulator panic; an integer in a real array runs.
func TestRunRefusesWrongElementKinds(t *testing.T) {
	art, err := CompileArtifact(`
param n = 4;
input A : array[real] [1, n];
input M : array[boolean] [1, n];
Y : array[real] :=
  forall i in [1, n]
    y : real := if M[i] then A[i] else 0. - A[i] endif;
  construct y
  endall;
output Y;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := func() map[string][]value.Value {
		return map[string][]value.Value{
			"A": value.Reals([]float64{1, 2, 3, 4}),
			"M": value.Bools([]bool{true, false, true, false}),
		}
	}
	withInt := good()
	withInt["A"][3] = value.I(4)
	if _, err := art.Run(Binding{}, withInt); err != nil {
		t.Fatalf("an integer in a real array: %v", err)
	}
	cases := []struct {
		input string
		i     int
		v     value.Value
		want  string
	}{
		{"A", 0, value.B(true), "input A element 0 is boolean, want real"},
		{"A", 1, value.Value{}, "input A element 1 is invalid, want real"},
		{"M", 2, value.R(1), "input M element 2 is real, want boolean"},
		{"M", 3, value.I(0), "input M element 3 is integer, want boolean"},
	}
	for _, tc := range cases {
		bad := good()
		bad[tc.input][tc.i] = tc.v
		if _, err := art.Run(Binding{}, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run with %s[%d] = %v: error %v, want %q", tc.input, tc.i, tc.v, err, tc.want)
		}
		lanes := []map[string][]value.Value{nil, {tc.input: bad[tc.input]}}
		if _, err := art.RunBatch(Binding{Batch: 2}, good(), lanes); err == nil || !strings.Contains(err.Error(), "lane 1 "+tc.want) {
			t.Errorf("RunBatch with lane 1 %s[%d] = %v: error %v, want %q", tc.input, tc.i, tc.v, err, "lane 1 "+tc.want)
		}
	}
}
