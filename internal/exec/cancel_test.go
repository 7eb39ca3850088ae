package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// cancelChain builds a pipeline long enough (in stream length) that a run
// crosses many CancelCadence windows: n stream values through d identity
// stages quiesce after roughly 2n+d cycles.
func cancelChain(n, d int) *graph.Graph {
	g := graph.New()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	prev := g.AddSource("in", value.Reals(vals))
	for s := 0; s < d; s++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, g.AddSink("out"), 0)
	return g
}

// TestCancelPreFiredContext checks a pre-fired context stops a scalar run
// at its first poll; Workers does not change a scalar run.
func TestCancelPreFiredContext(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := Run(cancelChain(4*CancelCadence, 8), Options{Ctx: ctx, Workers: workers})
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if res == nil {
				t.Fatal("expected partial result alongside the error")
			}
			if !res.Canceled {
				t.Fatal("partial result not marked Canceled")
			}
			if res.Clean {
				t.Fatal("canceled run reported Clean")
			}
			if len(res.Stalled) == 0 || !strings.HasPrefix(res.Stalled[0], "canceled:") {
				t.Fatalf("Stalled should lead with the canceled diagnostic, got %v", res.Stalled)
			}
			// A pre-fired context is seen at the very first cadence check.
			if res.Cycles > CancelCadence {
				t.Fatalf("pre-canceled run simulated %d cycles, want <= %d", res.Cycles, CancelCadence)
			}
		})
	}
}

// TestCancelMidRunReturnsPartial cancels while the pipeline is in flight
// and checks the partial result is a prefix of the full run, observed
// within one cancellation cadence of the firing point. A scalar run is
// sequential whatever Workers says, so both worker counts stop at the same
// cycle.
func TestCancelMidRunReturnsPartial(t *testing.T) {
	n := 4 * CancelCadence
	full, err := Run(cancelChain(n, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stopped := -1
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			fired := 0
			g := cancelChain(n, 8)
			opt := Options{Ctx: ctx, Workers: workers}
			// The per-firing debug hook cancels deterministically mid-run.
			opt.Trace = func(cycle int, node *graph.Node, out value.Value) {
				fired++
				if fired == n { // roughly the middle of the run
					cancel()
				}
			}
			res, err := Run(g, opt)
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if res == nil || !res.Canceled {
				t.Fatal("expected canceled partial result")
			}
			got := res.Outputs["out"]
			want := full.Outputs["out"]
			if len(got) > len(want) {
				t.Fatalf("partial output longer than full run: %d > %d", len(got), len(want))
			}
			for i := range got {
				if !value.Equal(got[i], want[i]) {
					t.Fatalf("partial output[%d] = %v, full run has %v", i, got[i], want[i])
				}
			}
			if res.Cycles >= full.Cycles {
				t.Fatalf("mid-run cancel did not stop early: %d >= %d cycles", res.Cycles, full.Cycles)
			}
			// The cancel fires mid-run; the loop must notice within one
			// cadence window.
			if got := len(res.Outputs["out"]); got == 0 {
				t.Fatal("mid-run cancel produced no partial output")
			}
			if stopped >= 0 && res.Cycles != stopped {
				t.Fatalf("Workers=%d stopped at cycle %d, Workers=0 at %d", workers, res.Cycles, stopped)
			}
			stopped = res.Cycles
		})
	}
}

// TestCancelMidBatchPartialAllLanes cancels a B>1 run mid-flight (via the
// lane-0 debug hook, which fires deterministically) and checks every lane
// comes back with a deterministic partial Result: Canceled set, the
// canceled diagnostic leading Stalled, outputs a prefix of the full run,
// and all lanes stopped at the same cancellation cycle (lanes advance in
// lockstep within a worker).
func TestCancelMidBatchPartialAllLanes(t *testing.T) {
	n := 4 * CancelCadence
	const b = 4
	full, err := Run(cancelChain(n, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			fired := 0
			opt := Options{Ctx: ctx, Batch: b, Workers: workers}
			opt.Trace = func(cycle int, node *graph.Node, out value.Value) {
				fired++
				if fired == n { // roughly the middle of the run
					cancel()
				}
			}
			res, err := Run(cancelChain(n, 8), opt)
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if res == nil || !res.Canceled {
				t.Fatal("expected canceled partial result")
			}
			if len(res.Lanes) != b {
				t.Fatalf("canceled result carries %d lanes, want %d", len(res.Lanes), b)
			}
			if !res.Lanes[0].Canceled {
				t.Fatal("lane 0 (whose debug hook fired the cancel mid-run) not marked Canceled")
			}
			for l := 0; l < b; l++ {
				lr := res.Lanes[l]
				got, want := lr.Outputs["out"], full.Outputs["out"]
				if lr.Canceled {
					// A canceled lane is a deterministic prefix of the full
					// run, cut at the poll cycle that observed the cancel.
					if lr.Clean {
						t.Errorf("lane %d: canceled lane reported Clean", l)
					}
					if len(lr.Stalled) == 0 || !strings.HasPrefix(lr.Stalled[0], "canceled:") {
						t.Errorf("lane %d: Stalled should lead with the canceled diagnostic, got %v", l, lr.Stalled)
					}
					if len(got) >= len(want) {
						t.Errorf("lane %d: canceled lane produced the full %d-value output", l, len(got))
					}
				} else if len(got) != len(want) {
					// A lane whose worker finished before the cancel landed
					// (possible only at Workers>1) must be complete.
					t.Errorf("lane %d: uncanceled lane produced %d of %d values", l, len(got), len(want))
				}
				for i := range got {
					if !value.Equal(got[i], want[i]) {
						t.Fatalf("lane %d: partial output[%d] = %v, full run has %v", l, i, got[i], want[i])
					}
				}
			}
			if workers == 1 {
				// One worker advances all lanes in lockstep, so every lane
				// observes the cancel at the same poll cycle and the partial
				// result is fully deterministic across lanes.
				for l := 1; l < b; l++ {
					if res.Lanes[l].Cycles != res.Lanes[0].Cycles {
						t.Errorf("lane %d stopped at cycle %d, lane 0 at %d",
							l, res.Lanes[l].Cycles, res.Lanes[0].Cycles)
					}
					if len(res.Lanes[l].Outputs["out"]) != len(res.Lanes[0].Outputs["out"]) {
						t.Errorf("lane %d partial output length diverges from lane 0", l)
					}
				}
			}
		})
	}
}

// TestCancelPreFiredBatch: a pre-fired context at B>1 is seen at the first
// cadence poll on every worker; all lanes report canceled at cycle 0.
func TestCancelPreFiredBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(cancelChain(4*CancelCadence, 8), Options{Ctx: ctx, Batch: 4, Workers: 2})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if res == nil || !res.Canceled {
		t.Fatal("expected canceled partial result")
	}
	for l, lr := range res.Lanes {
		if !lr.Canceled {
			t.Errorf("lane %d not marked Canceled", l)
		}
		if lr.Cycles > CancelCadence {
			t.Errorf("lane %d simulated %d cycles pre-canceled, want <= %d", l, lr.Cycles, CancelCadence)
		}
	}
}

// TestNilContextUnperturbed pins the zero-perturbation guarantee: attaching
// no context leaves the run byte-identical to one with a never-firing one.
func TestNilContextUnperturbed(t *testing.T) {
	base, err := Run(cancelChain(2048, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Run(cancelChain(2048, 4), Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != withCtx.Cycles {
		t.Fatalf("cycle count perturbed by un-fired context: %d vs %d", base.Cycles, withCtx.Cycles)
	}
	if !value.CloseSlices(base.Outputs["out"], withCtx.Outputs["out"], 0) {
		t.Fatal("outputs perturbed by un-fired context")
	}
}
