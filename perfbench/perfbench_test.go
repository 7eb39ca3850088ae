package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/value"
)

// fig2Run compiles and runs Fig 2 at n elements (batched when lanes > 1)
// and returns what check needs.
func fig2Run(t *testing.T, n, lanes int) (*expect, []lane, float64) {
	t.Helper()
	p := paperPrograms(n)[0]
	rng := rand.New(rand.NewSource(1))
	if err := p.bind(rng); err != nil {
		t.Fatal(err)
	}
	art, err := core.CompileArtifact(p.src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var over []map[string][]value.Value
	var rr []*core.RunResult
	if lanes > 1 {
		over = laneInputs(rng, p.chk, lanes)
		br, err := art.RunBatch(core.Binding{Batch: lanes}, p.inputs, over)
		if err != nil {
			t.Fatal(err)
		}
		rr = br.Lanes
	} else {
		r, err := art.Run(core.Binding{}, p.inputs)
		if err != nil {
			t.Fatal(err)
		}
		rr = []*core.RunResult{r}
	}
	refs, err := references(&p, withLanes(p.inputs, over))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs[0]) != 2 {
		t.Fatalf("fig2 has %d references, want the interpreter's and the formula's", len(refs[0]))
	}
	return &expect{refs: refs, primary: p.primary, rate: 2}, runLanes(rr), rr[0].II(p.primary)
}

func cloneLanes(ls []lane) []lane {
	out := make([]lane, len(ls))
	for i, l := range ls {
		outs := map[string][]value.Value{}
		for k, v := range l.outputs {
			outs[k] = slices.Clone(v)
		}
		out[i] = lane{outputs: outs, clean: l.clean}
	}
	return out
}

// TestCheckRejects feeds the checker a real run, then the same run with
// one fault each, so no check can pass vacuously.
func TestCheckRejects(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		exp, good, ii := fig2Run(t, 32, lanes)
		if f := check(exp, good, ii); f != nil {
			t.Fatalf("lanes=%d: a correct run was rejected: %v", lanes, f)
		}
		last := lanes - 1
		cases := []struct {
			name, reason string
			fault        func(ls []lane, ii *float64)
		}{
			{"perturbed element", reasonOutput, func(ls []lane, _ *float64) {
				y := ls[last].outputs["Y"]
				y[7] = value.R(y[7].AsReal() * (1 + 1e-6))
			}},
			{"missing element", reasonOutput, func(ls []lane, _ *float64) {
				ls[last].outputs["Y"] = ls[last].outputs["Y"][:31]
			}},
			{"missing output", reasonOutput, func(ls []lane, _ *float64) { delete(ls[last].outputs, "Y") }},
			{"run that does not drain clean", reasonDrain, func(ls []lane, _ *float64) { ls[last].clean = false }},
			{"II above the theorem rate", reasonII, func(_ []lane, ii *float64) { *ii = 2.0625 }},
		}
		for _, c := range cases {
			ls, bad := cloneLanes(good), ii
			c.fault(ls, &bad)
			f := check(exp, ls, bad)
			if f == nil || f.reason != c.reason {
				t.Errorf("lanes=%d, %s: got %v, want a %s failure", lanes, c.name, f, c.reason)
			}
		}
	}
}

// TestCheckFloor holds a conditional program's II to the predicted bound.
func TestCheckFloor(t *testing.T) {
	exp, ls, _ := fig2Run(t, 16, 1)
	exp.rate, exp.floor = 0, 2
	if f := check(exp, ls, 2.25); f != nil {
		t.Errorf("II above the bound rejected: %v", f)
	}
	if f := check(exp, ls, 1.75); f == nil || f.reason != reasonII {
		t.Errorf("II below the bound: got %v, want an ii failure", f)
	}
}

// TestFormulaMustMatchInterpreter: a plain-Go formula that disagrees with
// val.Interp is an error, not a second opinion to ignore.
func TestFormulaMustMatchInterpreter(t *testing.T) {
	p := paperPrograms(16)[0]
	if err := p.bind(rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	p.formula = func(in map[string][]float64) map[string][]float64 {
		y := fig2Formula(in)["Y"]
		y[0] += 0.5
		return map[string][]float64{"Y": y}
	}
	if _, err := references(&p, []map[string][]value.Value{p.inputs}); err == nil {
		t.Fatal("a wrong formula was accepted")
	}
}

// assigned lists, per workload, the per-layer metrics the traced run must
// report above zero, and the ones that must read exactly zero there.
var assigned = map[string]struct{ moves, zero []string }{
	"compile-large": {
		moves: []string{"val.parse_ms", "pipestruct.construct_ms", "balance.plan_ms", "exec.prepare_ms", "exec.run_ms", "exec.firings_per_op"},
		zero:  []string{"place.plan_ms", "place.cut_cost", "machine.run_ms", "machine.packets_per_op", "artifact.hit_ratio", "artifact.compiles_per_op", "serve.submit_ms"},
	},
	"stream-long": {
		moves: []string{"exec.run_ms", "exec.firings_per_op"},
		zero:  []string{"val.parse_ms", "balance.plan_ms", "balance.apply_ms", "core.compile_ms", "place.plan_ms", "machine.run_ms", "artifact.compiles_per_op", "serve.codec_ms"},
	},
	"machine-placed": {
		moves: []string{"place.plan_ms", "place.cut_cost", "machine.run_ms", "machine.packets_per_op", "machine.pe_busy_ratio", "balance.plan_ms"},
		zero:  []string{"exec.run_ms", "core.run_ms", "exec.firings_per_op", "artifact.hit_ratio", "serve.submit_ms"},
	},
	"serve-repeat": {
		moves: []string{"artifact.hit_ratio", "artifact.compiles_per_op", "serve.codec_ms", "serve.submit_ms", "balance.plan_ms", "exec.run_ms", "machine.run_ms", "machine.packets_per_op"},
		zero:  []string{"place.plan_ms", "place.cut_cost"},
	},
}

// exact are the metrics that must repeat exactly under one seed.
var exact = []string{"sim_cycles_per_op", "cells_per_prog", "buffer_stages_per_prog",
	"exec.firings_per_op", "machine.packets_per_op", "machine.pe_busy_ratio", "place.cut_cost",
	"artifact.hit_ratio", "artifact.compiles_per_op"}

// TestTinyWorkloads runs one round of a tiny instance of every workload,
// untraced and traced, twice each: every op passes its checks (bar
// iter-reconverge's II), the traced run writes its spans and reports its
// layers, and the exact metrics repeat under one seed.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var first map[string]float64
				for rep := 0; rep < 2; rep++ {
					trace := filepath.Join(t.TempDir(), "trace.json")
					out, err := run(w, config{seed: 7, traced: traced, traceOut: trace, setups: 1, minOps: 1, sz: tiny})
					if err != nil {
						t.Fatal(err)
					}
					wantFailed := 0
					if w.name == "stream-long" {
						wantFailed = out.rounds // iter-reconverge, once a round
					}
					if out.unexpected != 0 || out.failed != wantFailed {
						t.Fatalf("traced=%v: %d failed (%d unexpected), want %d: %v", traced, out.failed, out.unexpected, wantFailed, out.firstFailure)
					}
					if traced {
						if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
							t.Fatalf("traced run wrote no spans: %v", err)
						}
						for _, m := range assigned[w.name].moves {
							if out.metrics[m] <= 0 {
								t.Errorf("%s = %g, want > 0", m, out.metrics[m])
							}
						}
						for _, m := range assigned[w.name].zero {
							if out.metrics[m] != 0 {
								t.Errorf("%s = %g, want 0", m, out.metrics[m])
							}
						}
					}
					if first == nil {
						first = out.metrics
						continue
					}
					for _, m := range exact {
						if out.metrics[m] != first[m] {
							t.Errorf("traced=%v: %s = %v, then %v under the same seed", traced, m, first[m], out.metrics[m])
						}
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads the
// command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, command runs %s at %d", names, w.name, i)
		}
	}
	match := func(kind string, defs []metricDef, ms []metric, higher map[string]bool) {
		if len(defs) != len(ms) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(defs), len(ms))
			return
		}
		for i, d := range defs {
			better := "lower"
			if higher[d.Name] {
				better = "higher"
			}
			if d.Name != ms[i].name || d.Unit != ms[i].unit || d.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s, %s), the command prints %s (%s, %s)",
					kind, i, d.Name, d.Unit, d.Better, ms[i].name, ms[i].unit, better)
			}
			if (kind == "end_to_end") != (d.Bound != nil) {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, nil)
	match("per_layer", spec.PerLayer, perLayer, map[string]bool{"artifact.hit_ratio": true, "machine.pe_busy_ratio": true})
}
