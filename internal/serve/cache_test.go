package serve

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/core"
	"staticpipe/internal/obs"
	"staticpipe/internal/progs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// TestThrottledNeverCompiles pins the admission order: a submission the
// token bucket rejects must be refused before the compiler ever sees it.
// The parser call counter is the witness — a 429 that parsed the program
// would mean a tenant over its rate limit can still burn compile CPU.
func TestThrottledNeverCompiles(t *testing.T) {
	s := newService(t, Config{TenantRate: 0.0001, TenantBurst: 1, OffloadThreshold: 1 << 40})
	before := val.ParseCalls()

	j, rej := s.Submit(nil, spec(progs.Fig2(16)))
	if rej != nil {
		t.Fatalf("first submission rejected: %v", rej)
	}
	await(t, j, 30*time.Second)
	if got := val.ParseCalls() - before; got != 1 {
		t.Fatalf("admitted submission parsed %d times, want 1", got)
	}

	// The bucket is empty; every further submission — each a distinct
	// program, so a cache could never mask a compile — must bounce without
	// a single parse.
	for i := 0; i < 3; i++ {
		_, rej := s.Submit(nil, spec(progs.Fig2(32+i)))
		if rej == nil || rej.Reason != ReasonThrottled {
			t.Fatalf("submission %d: rejection %v, want %s", i, rej, ReasonThrottled)
		}
	}
	if got := val.ParseCalls() - before; got != 1 {
		t.Fatalf("throttled submissions reached the compiler: %d parses, want 1", got)
	}
}

// TestDrainingNeverCompiles pins the other admission-order edge: once the
// service is draining, a submission is refused with 503 before compilation.
func TestDrainingNeverCompiles(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	before := val.ParseCalls()
	_, rej := s.Submit(nil, spec(progs.Fig2(64)))
	if rej == nil || rej.Reason != ReasonShutdown {
		t.Fatalf("rejection %v, want %s", rej, ReasonShutdown)
	}
	if got := val.ParseCalls() - before; got != 0 {
		t.Fatalf("draining submission reached the compiler: %d parses, want 0", got)
	}
}

// TestCacheHitSkipsCompileAndMatches pins the cache fast path end to end:
// the second submission of a program must not compile (parser counter
// unchanged) and must produce a byte-identical result.
func TestCacheHitSkipsCompileAndMatches(t *testing.T) {
	cache := artifact.New(artifact.Config{})
	s := newService(t, Config{Cache: cache, OffloadThreshold: 1 << 40})
	p := progs.Fig2(128)

	before := val.ParseCalls()
	j1, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j1, 30*time.Second)
	afterFirst := val.ParseCalls() - before

	j2, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j2, 30*time.Second)
	if got := val.ParseCalls() - before; got != afterFirst {
		t.Fatalf("cache hit recompiled: %d parses after second submit, want %d", got, afterFirst)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st)
	}

	r1, r2 := j1.Result(), j2.Result()
	if r1 == nil || r2 == nil {
		t.Fatalf("missing results: %v %v", r1, r2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cache-hit result diverged from fresh compile:\nfresh: %+v\nhit:   %+v", r1, r2)
	}
}

// TestBatchWidthsShareOneCompile: the lane width binds per run, not per
// compile, so one program submitted at batch 1 and then at batch 8
// compiles once (one miss, one hit), and each result equals that of a run
// whose width came from the compile options, as the service ran jobs
// before the width left the artifact key.
func TestBatchWidthsShareOneCompile(t *testing.T) {
	cache := artifact.New(artifact.Config{})
	s := newService(t, Config{Cache: cache, OffloadThreshold: 1 << 40})
	p := progs.Fig2(64)
	one := spec(p)
	one.Batch = 1
	for _, sp := range []Spec{one, batchSpec(p, 8)} {
		j, rej := s.Submit(nil, sp)
		if rej != nil {
			t.Fatalf("batch %d rejected: %v", sp.Batch, rej)
		}
		await(t, j, 30*time.Second)
		got := j.Result()
		if got == nil {
			t.Fatalf("batch %d: no result (%s)", sp.Batch, j.View(false).Error)
		}
		legacy, err := core.CompileArtifact(sp.Source, core.Options{Batch: sp.Batch})
		if err != nil {
			t.Fatal(err)
		}
		var lanes []*core.RunResult
		if sp.Batch > 1 {
			br, err := legacy.RunBatch(core.Binding{}, streamInputs(sp.Inputs), laneStreamInputs(sp.LaneInputs))
			if err != nil {
				t.Fatal(err)
			}
			lanes = br.Lanes
			if got.Batch != sp.Batch || len(got.Lanes) != sp.Batch {
				t.Fatalf("batch %d: result has batch %d and %d lanes", sp.Batch, got.Batch, len(got.Lanes))
			}
		} else {
			rr, err := legacy.Run(core.Binding{}, streamInputs(sp.Inputs))
			if err != nil {
				t.Fatal(err)
			}
			lanes = []*core.RunResult{rr}
			got.Lanes = []LaneView{{Cycles: got.Cycles, Clean: got.Clean, Outputs: got.Outputs}}
		}
		for l, want := range lanes {
			lv := got.Lanes[l]
			if lv.Cycles != want.Exec.Cycles || lv.Clean != want.Exec.Clean {
				t.Errorf("batch %d lane %d: cycles %d clean %v, want %d %v", sp.Batch, l, lv.Cycles, lv.Clean, want.Exec.Cycles, want.Exec.Clean)
			}
			for name, av := range want.Outputs {
				if !reflect.DeepEqual([]value.Value(lv.Outputs[name].Values), av.Elems) {
					t.Errorf("batch %d lane %d: output %s diverges from the compile-time-width run", sp.Batch, l, name)
				}
			}
		}
		for name, ii := range got.II {
			if want := lanes[0].Exec.II(name); ii != want {
				t.Errorf("batch %d: II(%s) = %v, want %v", sp.Batch, name, ii, want)
			}
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss / 1 hit", st)
	}
}

// TestCacheSpanChild pins the observability wiring: with a cache
// configured, every admission span carries a cache.lookup child whose
// outcome attr says how the lookup was served.
func TestCacheSpanChild(t *testing.T) {
	s := newService(t, Config{Cache: artifact.New(artifact.Config{}), OffloadThreshold: 1 << 40})
	p := progs.Fig2(64)

	j1, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j1, 30*time.Second)
	j2, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j2, 30*time.Second)

	for i, want := range map[*Job]string{j1: "miss", j2: "hit"} {
		root := treeOf(t, i)
		sp := root.Find(obs.KindCache)
		if sp == nil || sp.Open {
			t.Fatalf("job %d: cache.lookup span = %+v", i.ID, sp)
		}
		if sp.Attrs["outcome"] != want {
			t.Fatalf("job %d: outcome attr %v, want %q", i.ID, sp.Attrs["outcome"], want)
		}
		if sp.Attrs["key"] == nil {
			t.Fatalf("job %d: cache.lookup span has no key attr: %v", i.ID, sp.Attrs)
		}
		if want == "hit" && sp.Attrs["saved_us"] == nil {
			t.Fatalf("hit span missing saved_us attr: %v", sp.Attrs)
		}
	}
}

// TestCacheMetricsExposition pins the staticpipe_cache_* families: present
// when a cache is configured, consistent with the cache's own stats, and
// clean under the Prometheus text-format linter.
func TestCacheMetricsExposition(t *testing.T) {
	cache := artifact.New(artifact.Config{})
	s := newService(t, Config{Cache: cache, OffloadThreshold: 1 << 40})
	p := progs.Fig2(64)
	for i := 0; i < 3; i++ {
		j, rej := s.Submit(nil, spec(p))
		if rej != nil {
			t.Fatalf("rejected: %v", rej)
		}
		await(t, j, 30*time.Second)
	}

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	text := buf.String()
	for _, want := range []string{
		"staticpipe_cache_hits_total 2",
		"staticpipe_cache_misses_total 1",
		"staticpipe_cache_coalesced_total 0",
		"staticpipe_cache_evictions_total 0",
		"staticpipe_cache_entries 1",
		"staticpipe_cache_bytes ",
		"staticpipe_cache_compile_seconds_saved_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if probs := telemetry.LintExposition(strings.NewReader(text)); len(probs) != 0 {
		t.Fatalf("cache metrics fail exposition lint:\n%s", strings.Join(probs, "\n"))
	}
}
