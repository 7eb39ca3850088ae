package serve

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/obs"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// rot rotates a stream by k — cheap distinct per-lane inputs that keep the
// declared length.
func rot(vs Stream, k int) Stream {
	k = k % len(vs)
	return append(append(Stream(nil), vs[k:]...), vs[:k]...)
}

// batchSpec builds a B-lane submission of p where lane l>0 consumes its
// input streams rotated by l.
func batchSpec(p progs.Program, b int) Spec {
	sp := spec(p)
	sp.Batch = b
	sp.LaneInputs = make([]map[string]Stream, b)
	for l := 1; l < b; l++ {
		m := map[string]Stream{}
		for name, vs := range sp.Inputs {
			m[name] = rot(vs, l)
		}
		sp.LaneInputs[l] = m
	}
	return sp
}

// laneReference computes the interpreter ground truth for lane l of sp.
func laneReference(t *testing.T, sp Spec, l int) map[string][]value.Value {
	t.Helper()
	u, err := core.CompileArtifact(sp.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[string][]value.Value{}
	for name, vs := range sp.Inputs {
		in[name] = vs
	}
	if l > 0 && l < len(sp.LaneInputs) && sp.LaneInputs[l] != nil {
		for name, vs := range sp.LaneInputs[l] {
			in[name] = vs
		}
	}
	want, err := u.Reference(in)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]value.Value{}
	for name, av := range want {
		out[name] = av.Elems
	}
	return out
}

// TestBatchJobBothModels runs a 4-lane job with per-lane inputs through
// both simulator models and checks every lane against the reference
// interpreter on its own streams — plus the lane-0 identity contract
// against a scalar run of the same spec.
func TestBatchJobBothModels(t *testing.T) {
	const b = 4
	p := progs.Fig2(64)
	for _, model := range []string{ModelExec, ModelMachine} {
		t.Run(model, func(t *testing.T) {
			s := newService(t, Config{OffloadThreshold: 1 << 40})
			scalar := spec(p)
			scalar.Model = model
			js, rej := s.Submit(nil, scalar)
			if rej != nil {
				t.Fatalf("scalar rejected: %v", rej)
			}
			sp := batchSpec(p, b)
			sp.Model = model
			jb, rej := s.Submit(nil, sp)
			if rej != nil {
				t.Fatalf("batch rejected: %v", rej)
			}
			await(t, jb, 30*time.Second)
			res := jb.Result()
			if res == nil || jb.State() != StateDone {
				t.Fatalf("batch job state %s, result %v", jb.State(), res)
			}
			if res.Batch != b || len(res.Lanes) != b {
				t.Fatalf("result batch %d with %d lanes, want %d", res.Batch, len(res.Lanes), b)
			}

			// Lane 0 is byte-identical to the scalar run of the same spec.
			sres := js.Result()
			if res.Cycles != sres.Cycles || res.Lanes[0].Cycles != sres.Cycles {
				t.Fatalf("lane 0 cycles %d/%d, scalar run %d", res.Cycles, res.Lanes[0].Cycles, sres.Cycles)
			}
			for name, w := range sres.Outputs {
				g := res.Lanes[0].Outputs[name]
				for i := range w.Values {
					if g.Values[i] != w.Values[i] {
						t.Fatalf("lane 0 %s[%d] = %v, scalar %v", name, i, g.Values[i], w.Values[i])
					}
				}
			}

			// Every lane matches the interpreter on its own inputs.
			for l := 0; l < b; l++ {
				want := laneReference(t, sp, l)
				lv := res.Lanes[l]
				if !lv.Clean || lv.Canceled {
					t.Fatalf("lane %d not clean: %+v", l, lv)
				}
				for name, w := range want {
					g, ok := lv.Outputs[name]
					if !ok || len(g.Values) != len(w) {
						t.Fatalf("lane %d output %s: got %d values, want %d", l, name, len(g.Values), len(w))
					}
					for i := range w {
						if !value.Close(g.Values[i], w[i], 1e-9) {
							t.Fatalf("lane %d %s[%d] = %v, reference %v", l, name, i, g.Values[i], w[i])
						}
					}
				}
			}

			// Admission bills the extra lanes at amortized (quarter) cost,
			// strictly between one scalar run and B independent ones.
			if jb.Cost <= js.Cost || jb.Cost >= int64(b)*js.Cost {
				t.Fatalf("batch cost %d not in (%d, %d)", jb.Cost, js.Cost, int64(b)*js.Cost)
			}
		})
	}
}

// TestBatchSpecValidation pins the 400-level rejections for malformed
// batched submissions.
func TestBatchSpecValidation(t *testing.T) {
	p := progs.Fig2(16)
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"over-limit", func(sp *Spec) { sp.Batch = exec.MaxBatch + 1 },
			fmt.Sprintf("exceeds the %d-lane limit", exec.MaxBatch)},
		{"lanes-without-batch", func(sp *Spec) {
			sp.LaneInputs = []map[string]Stream{nil, {"A": sp.Inputs["A"]}}
		}, "lane_inputs requires batch > 1"},
		{"too-many-lane-sets", func(sp *Spec) {
			sp.Batch = 2
			sp.LaneInputs = make([]map[string]Stream, 3)
		}, "3 lane input sets for 2 lanes"},
		{"unknown-lane-input", func(sp *Spec) {
			sp.Batch = 2
			sp.LaneInputs = []map[string]Stream{nil, {"NOPE": sp.Inputs["A"]}}
		}, "lane 1 binds unknown input NOPE"},
		{"wrong-lane-length", func(sp *Spec) {
			sp.Batch = 2
			sp.LaneInputs = []map[string]Stream{nil, {"A": sp.Inputs["A"][:3]}}
		}, "lane 1 input A has 3 elements, want 16"},
	}
	s := newService(t, Config{OffloadThreshold: 1 << 40})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := spec(p)
			tc.mut(&sp)
			_, rej := s.Submit(nil, sp)
			if rej == nil {
				t.Fatal("malformed batch spec was admitted")
			}
			if rej.Status != http.StatusBadRequest || rej.Reason != ReasonInvalid {
				t.Fatalf("rejection %s/%d, want %s/400", rej.Reason, rej.Status, ReasonInvalid)
			}
			if !strings.Contains(rej.Err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", rej.Err, tc.want)
			}
		})
	}
}

// TestCostRatioMetric checks that finished jobs feed the estimate-quality
// histogram and that it renders in exposition format.
func TestCostRatioMetric(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: 1 << 40})
	for _, b := range []int{0, 4} {
		sp := spec(progs.Fig2(64))
		sp.Batch = b
		j, rej := s.Submit(nil, sp)
		if rej != nil {
			t.Fatalf("batch=%d rejected: %v", b, rej)
		}
		await(t, j, 30*time.Second)
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	out := sb.String()
	if !strings.Contains(out, "# TYPE staticpipe_serve_cost_ratio histogram") {
		t.Fatalf("cost_ratio family missing:\n%s", out)
	}
	if !strings.Contains(out, "staticpipe_serve_cost_ratio_count 2") {
		t.Fatalf("expected 2 cost_ratio observations:\n%s", out)
	}
	if !strings.Contains(out, `staticpipe_serve_cost_ratio_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket missing or wrong:\n%s", out)
	}
	s.mu.Lock()
	sum, count := s.costRatio.sum, s.costRatio.count
	s.mu.Unlock()
	if count != 2 || sum <= 0 {
		t.Fatalf("histogram sum %g count %d after two jobs", sum, count)
	}
}

// TestCostRatioBatchInvariant pins the cost ratio's units: a batched job's
// actual work is expressed the way its bill is (cells × mean lane cycles ×
// (B+3)/4), so one program reads the same ratio at every width and a
// batched job scores as a good cost_model observation.
func TestCostRatioBatchInvariant(t *testing.T) {
	slo := DefaultSLOs()
	s := newService(t, Config{OffloadThreshold: 1 << 40, SLO: slo})
	ratios := map[int]float64{}
	for _, b := range []int{0, 4, 16} {
		sp := spec(progs.Fig2(64))
		sp.Batch = b
		j, rej := s.Submit(nil, sp)
		if rej != nil {
			t.Fatalf("batch=%d rejected: %v", b, rej)
		}
		await(t, j, 30*time.Second)
		run := treeOf(t, j).Find(obs.KindRun)
		if run == nil {
			t.Fatalf("batch=%d: no run span", b)
		}
		r, ok := run.Attrs["cost_ratio"].(float64)
		if !ok || r <= 0 {
			t.Fatalf("batch=%d: cost_ratio = %v", b, run.Attrs["cost_ratio"])
		}
		ratios[b] = r
	}
	for _, b := range []int{4, 16} {
		if d := math.Abs(ratios[b]/ratios[0] - 1); d > 0.01 {
			t.Errorf("batch=%d cost_ratio %.4f vs scalar %.4f (%.1f%% apart)", b, ratios[b], ratios[0], 100*d)
		}
	}
	for _, st := range slo.Evaluate() {
		if st.Name == SLOCostModel && (st.GoodTotal != 3 || st.BadTotal != 0) {
			t.Fatalf("cost_model totals = %d good / %d bad, want 3 / 0 (ratios %v)", st.GoodTotal, st.BadTotal, ratios)
		}
	}
}

// TestOffloadKeepsClientWorkers pins Spec.Workers' contract on the offload
// path: the service's SimWorkers applies only when the client sent 0.
func TestOffloadKeepsClientWorkers(t *testing.T) {
	for _, tc := range []struct {
		name            string
		client, simWork int
		want            int64
	}{
		{"client-4-survives", 4, 0, 4},
		{"client-0-takes-service-2", 0, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newService(t, Config{OffloadThreshold: -1, SimWorkers: tc.simWork})
			sp := spec(progs.Fig2(64))
			sp.Batch = 4
			sp.Workers = tc.client
			j, rej := s.Submit(nil, sp)
			if rej != nil {
				t.Fatalf("rejected: %v", rej)
			}
			if j.Path != PathOffload {
				t.Fatalf("path %s, want offload", j.Path)
			}
			await(t, j, 30*time.Second)
			run := treeOf(t, j).Find(obs.KindRun)
			if run == nil {
				t.Fatal("no run span")
			}
			if w := run.Attrs["workers"]; w != tc.want {
				t.Fatalf("run span workers = %v, want %d", w, tc.want)
			}
		})
	}
}
