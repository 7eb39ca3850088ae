package machine

import (
	"context"
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

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

// TestMachineCancelPreFiredContext checks a pre-fired context stops a
// scalar run at its first poll. The subtest keeps the name it had when the
// machine took a worker count: zero was the sequential engine, the only
// one the machine has now.
func TestMachineCancelPreFiredContext(t *testing.T) {
	t.Run("workers=0", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Run(cancelChain(2*exec.CancelCadence, 4), Config{Ctx: ctx})
		if err == nil {
			t.Fatal("expected cancellation error")
		}
		if res == nil || !res.Canceled {
			t.Fatal("expected canceled partial result")
		}
		if res.Clean {
			t.Fatal("canceled run reported Clean")
		}
		if len(res.Stalled) == 0 || !strings.HasPrefix(res.Stalled[0], "canceled:") {
			t.Fatalf("Stalled should lead with the canceled diagnostic, got %v", res.Stalled)
		}
		// The poll cadence bounds how far past the firing point the machine
		// can run.
		if res.Cycles > 2*exec.CancelCadence {
			t.Fatalf("pre-canceled run simulated %d cycles, want <= %d", res.Cycles, 2*exec.CancelCadence)
		}
		// Partial outputs must be a prefix of the input stream (the chain is
		// pure identity).
		for i, v := range res.Outputs["out"] {
			if v.AsReal() != float64(i) {
				t.Fatalf("partial output[%d] = %v, want %d", i, v, i)
			}
		}
	})
}

// cancelTracer cancels a context after the at-th firing event; attached to
// lane 0 it stops a batched run deterministically mid-flight.
type cancelTracer struct {
	fired  int
	at     int
	cancel context.CancelFunc
}

func (c *cancelTracer) Start(trace.Meta) {}
func (c *cancelTracer) Emit(e trace.Event) {
	if e.Kind == trace.KindFiring {
		c.fired++
		if c.fired == c.at {
			c.cancel()
		}
	}
}

// firingLog counts firing events and keeps the cycle of the last one.
type firingLog struct {
	n    int
	last int
}

func (f *firingLog) Start(trace.Meta) {}
func (f *firingLog) Emit(e trace.Event) {
	if e.Kind == trace.KindFiring {
		f.n++
		f.last = int(e.Cycle)
	}
}

// TestMachineCancelMidBatchPartialAllLanes cancels a B>1 machine run from
// lane 0's tracer, which fires deterministically. Lanes run one after
// another in lane order, so the lane running when the cancel lands stops
// at its next poll, every lane before it comes back complete, and every
// lane after it comes back Canceled at cycle 0. Canceling at lane 0's
// middle firing stops lane 0 with a partial prefix of the full run;
// canceling at its last firing lets lane 0 finish first (its last firing
// lands after its last poll) and leaves lanes 1.. canceled.
func TestMachineCancelMidBatchPartialAllLanes(t *testing.T) {
	n := 2 * exec.CancelCadence
	const b = 4
	var firings firingLog
	full, err := Run(cancelChain(n, 4), Config{Tracer: &firings})
	if err != nil {
		t.Fatal(err)
	}
	if firings.last/exec.CancelCadence != full.Cycles/exec.CancelCadence {
		t.Fatalf("a poll cycle falls between the last firing (%d) and quiescence (%d)", firings.last, full.Cycles)
	}
	for _, tc := range []struct {
		name      string
		at        int
		lane0Done bool
	}{
		{"mid-lane-0", n, false},
		{"end-of-lane-0", firings.n, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := Run(cancelChain(n, 4), Config{
				Ctx: ctx, Batch: b,
				Tracer: &cancelTracer{at: tc.at, cancel: cancel},
			})
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if res == nil || !res.Canceled || res.Clean {
				t.Fatal("expected canceled, unclean partial result")
			}
			if len(res.Stalled) == 0 || !strings.HasPrefix(res.Stalled[0], "canceled:") {
				t.Errorf("top-level Stalled should lead with the canceled diagnostic, got %v", res.Stalled)
			}
			if len(res.Lanes) != b {
				t.Fatalf("canceled result carries %d lanes, want %d", len(res.Lanes), b)
			}
			l0 := res.Lanes[0]
			if tc.lane0Done {
				if l0.Canceled {
					t.Fatal("lane 0 finished before the cancel landed but is marked Canceled")
				}
				requireSameMachineResult(t, "complete lane 0", full, laneViewM(res, 0))
			} else {
				if !l0.Canceled || l0.Clean {
					t.Fatal("lane 0 (whose tracer fired the cancel mid-run) not marked Canceled")
				}
				if l0.Cycles%exec.CancelCadence != 0 || l0.Cycles >= full.Cycles {
					t.Errorf("lane 0 stopped at cycle %d, want a poll cycle before %d", l0.Cycles, full.Cycles)
				}
				got, want := l0.Outputs["out"], full.Outputs["out"]
				if len(got) == 0 || len(got) >= len(want) {
					t.Errorf("lane 0 produced %d of %d values, want a proper partial prefix", len(got), len(want))
				}
				for i := range got {
					if !value.Equal(got[i], want[i]) {
						t.Fatalf("lane 0 partial output[%d] = %v, full run has %v", i, got[i], want[i])
					}
				}
			}
			for l := 1; l < b; l++ {
				lr := res.Lanes[l]
				if !lr.Canceled || lr.Clean || lr.Cycles != 0 || len(lr.Outputs["out"]) != 0 {
					t.Errorf("lane %d after the cancel: canceled=%v clean=%v cycles=%d outputs=%d, want canceled at cycle 0 with none",
						l, lr.Canceled, lr.Clean, lr.Cycles, len(lr.Outputs["out"]))
				}
				if len(lr.Stalled) == 0 || !strings.HasPrefix(lr.Stalled[0], "canceled:") {
					t.Errorf("lane %d: Stalled should lead with the canceled diagnostic, got %v", l, lr.Stalled)
				}
			}
		})
	}
}

// TestMachineCancelPreFiredBatch: a pre-fired context at B>1 is seen at
// every lane's first cadence poll; all lanes report canceled.
func TestMachineCancelPreFiredBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(cancelChain(2*exec.CancelCadence, 4), Config{Ctx: ctx, Batch: 4})
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
		if lr.Cycles > exec.CancelCadence {
			t.Errorf("lane %d simulated %d cycles pre-canceled, want <= %d", l, lr.Cycles, exec.CancelCadence)
		}
	}
}

func TestMachineNilContextUnperturbed(t *testing.T) {
	base, err := Run(cancelChain(512, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := Run(cancelChain(512, 4), Config{Ctx: context.Background()})
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
