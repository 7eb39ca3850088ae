package serve

import (
	"testing"
	"time"

	"staticpipe/internal/core"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// TestEstimateCostCountsLaneInputs pins the admission cost model against
// batched jobs whose per-lane rebinds carry the real work: drain time is
// governed by the longest stream any lane pushes through the pipeline, so
// lane overrides must fold into maxLen. Before the fix only spec.Inputs
// were sized and a long-lane batch was billed as a short job — and routed
// to the inline fast path instead of the offload queue.
func TestEstimateCostCountsLaneInputs(t *testing.T) {
	p := progs.Fig2(8)
	u, err := core.CompileArtifact(p.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for k := range p.Inputs {
		name = k
		break
	}

	base := spec(p)
	base.Batch = 2
	short, cells := estimateCost(u, base)

	const laneLen = 4096
	long := base
	long.LaneInputs = []map[string]Stream{nil, {name: value.Reals(make([]float64, laneLen))}}
	got, _ := estimateCost(u, long)

	want := cells * (2*laneLen + 2*cells + 16) * (2 + 3) / 4
	if got != want {
		t.Fatalf("long-lane cost = %d, want %d (maxLen must include lane inputs)", got, want)
	}
	if got <= short {
		t.Fatalf("long-lane cost %d not above base cost %d", got, short)
	}
	// The fast/offload split must see the difference: for any threshold
	// between the two estimates, the short batch runs inline while the
	// long-lane batch offloads. Under the old model both compared equal.
	thr := (short + got) / 2
	if short > thr {
		t.Fatalf("short batch (cost %d) would offload at threshold %d", short, thr)
	}
	if got <= thr {
		t.Fatalf("long-lane batch (cost %d) would run inline at threshold %d", got, thr)
	}
}

// TestBucketRetryAfterBounded pins take's failure hint: a zero, negative,
// or vanishingly small refill rate used to push (1-tokens)/rate to +Inf,
// whose int conversion produced a garbage Retry-After header.
func TestBucketRetryAfterBounded(t *testing.T) {
	now := time.Now()
	for _, rate := range []float64{0, -1, 1e-12} {
		b := &bucket{tokens: 0, last: now}
		ok, retry := b.take(now, rate, 4)
		if ok {
			t.Fatalf("rate %g: empty bucket granted a token", rate)
		}
		if retry <= 0 || retry > maxRetryAfter {
			t.Fatalf("rate %g: retryAfter = %d, want (0, %d]", rate, retry, maxRetryAfter)
		}
	}
	// A sane rate still reports the real wait.
	b := &bucket{tokens: 0, last: now}
	if ok, retry := b.take(now, 0.5, 4); ok || retry != 2 {
		t.Fatalf("rate 0.5: ok=%v retryAfter=%d, want refusal after 2s", ok, retry)
	}
}

// TestNegativeTenantRateDisablesThrottling pins the config clamp: a
// negative rate means "disabled", identical to zero, rather than a bucket
// that never refills.
func TestNegativeTenantRateDisablesThrottling(t *testing.T) {
	s := newService(t, Config{TenantRate: -3, OffloadThreshold: 1 << 40})
	if s.cfg.TenantRate != 0 {
		t.Fatalf("TenantRate = %g after defaults, want 0", s.cfg.TenantRate)
	}
	p := progs.Fig2(8)
	for i := 0; i < 3; i++ {
		j, rej := s.Submit(nil, spec(p))
		if rej != nil {
			t.Fatalf("submit %d rejected: %v", i, rej)
		}
		await(t, j, 5*time.Second)
	}
}
