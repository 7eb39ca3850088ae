package exec

import (
	"context"
	"encoding/json"
	"testing"

	"staticpipe/internal/obs"
)

// TestSpanAnnotatedAcrossEngines checks that each engine variant hangs the
// expected children and attributes off the span carried by Options.Ctx.
func TestSpanAnnotatedAcrossEngines(t *testing.T) {
	cases := []struct {
		name  string
		opt   Options
		lanes int
	}{
		{name: "sequential", opt: Options{}},
		{name: "batched", opt: Options{Batch: 3}, lanes: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := fig2(32)
			tr := obs.NewTree(obs.KindJob, "t")
			run := tr.Root().Child(obs.KindRun, tc.name)
			res, err := Run(g, withCtx(tc.opt, obs.WithSpan(context.Background(), run)))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			run.End()
			tr.Root().End()
			j := tr.Snapshot().Find(obs.KindRun)
			if j == nil {
				t.Fatal("run span missing from snapshot")
			}
			if j.Attrs["model"] != "exec" || j.Attrs["clean"] != true {
				t.Fatalf("run attrs = %v", j.Attrs)
			}
			if got := j.Attrs["cycles"]; got != int64(res.Cycles) {
				t.Fatalf("cycles attr = %v, result %d", got, res.Cycles)
			}
			lanes := 0
			for _, c := range j.Children {
				if c.Kind == obs.KindLane {
					lanes++
					if c.Attrs["clean"] != true {
						t.Fatalf("lane span attrs = %v", c.Attrs)
					}
				}
			}
			if lanes != tc.lanes {
				t.Fatalf("lane children = %d, want %d", lanes, tc.lanes)
			}
		})
	}
}

// TestSpanAttachedIsByteIdentical pins the zero-perturbation contract: a
// run with a span attached produces byte-identical outputs, cycle counts,
// and firing vectors to a detached run of the same graph.
func TestSpanAttachedIsByteIdentical(t *testing.T) {
	for _, opt := range []Options{{}, {Batch: 4}, {Batch: 4, Workers: 2}} {
		gDet, _ := fig2(48)
		det, err := Run(gDet, opt)
		if err != nil {
			t.Fatalf("detached Run: %v", err)
		}
		gAtt, _ := fig2(48)
		tr := obs.NewTree(obs.KindJob, "t")
		att, err := Run(gAtt, withCtx(opt, obs.WithSpan(context.Background(), tr.Root())))
		if err != nil {
			t.Fatalf("attached Run: %v", err)
		}
		db, _ := json.Marshal(det)
		ab, _ := json.Marshal(att)
		if string(db) != string(ab) {
			t.Fatalf("span attachment perturbed the run (opt %+v):\ndetached: %s\nattached: %s",
				opt, db, ab)
		}
	}
}

func withCtx(opt Options, ctx context.Context) Options {
	opt.Ctx = ctx
	return opt
}
