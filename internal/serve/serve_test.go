package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/progs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/value"
)

// newService builds a service and tears it down with the test.
func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// await blocks until the job is terminal or the deadline passes.
func await(t *testing.T, j *Job, d time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %d still %s after %v", j.ID, j.State(), d)
	}
}

func spec(p progs.Program) Spec {
	in := make(map[string]Stream, len(p.Inputs))
	for k, v := range p.Inputs {
		in[k] = v
	}
	return Spec{Source: p.Source, Inputs: in}
}

// directRun is the ground truth the service paths are pinned against.
func directRun(t *testing.T, p progs.Program) *core.RunResult {
	t.Helper()
	u, err := core.CompileArtifact(p.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := u.Run(core.Binding{}, p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestFastPathMatchesDirectRun pins the differential contract on the fast
// path: a service run is byte-identical to calling core.Artifact.Run yourself
// — same values, same cycle count, same initiation interval.
func TestFastPathMatchesDirectRun(t *testing.T) {
	p := progs.Fig2(256)
	want := directRun(t, p)

	s := newService(t, Config{OffloadThreshold: 1 << 40})
	j, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	if j.Path != PathFast {
		t.Fatalf("path %s, want fast", j.Path)
	}
	if got := j.State(); got != StateDone {
		t.Fatalf("fast-path job returned non-terminal state %s", got)
	}
	assertMatches(t, j.Result(), want, p.Output)
}

// TestOffloadPathMatchesDirectRun pins the same contract through the queue
// and worker pool, with SimWorkers set (a scalar job runs sequentially
// whatever it says).
func TestOffloadPathMatchesDirectRun(t *testing.T) {
	p := progs.Fig2(256)
	want := directRun(t, p)

	s := newService(t, Config{OffloadThreshold: -1, SimWorkers: 4})
	j, rej := s.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	if j.Path != PathOffload {
		t.Fatalf("path %s, want offload", j.Path)
	}
	await(t, j, 30*time.Second)
	if got := j.State(); got != StateDone {
		t.Fatalf("job state %s: %+v", got, j.View(false))
	}
	assertMatches(t, j.Result(), want, p.Output)
}

func assertMatches(t *testing.T, got *JobResult, want *core.RunResult, output string) {
	t.Helper()
	if got == nil {
		t.Fatal("no result")
	}
	if !got.Clean || got.Canceled {
		t.Fatalf("result not clean: %+v", got)
	}
	if got.Cycles != want.Exec.Cycles {
		t.Fatalf("cycles %d, direct run %d", got.Cycles, want.Exec.Cycles)
	}
	g, w := got.Outputs[output], want.Outputs[output]
	if len(g.Values) != len(w.Elems) || g.Lo != w.Lo {
		t.Fatalf("output shape [%d..+%d] vs direct [%d..+%d]", g.Lo, len(g.Values), w.Lo, len(w.Elems))
	}
	for i := range w.Elems {
		if g.Values[i] != w.Elems[i] {
			t.Fatalf("output[%d] = %v, direct %v", i, g.Values[i], w.Elems[i])
		}
	}
	if got.II[output] != want.Exec.II(output) {
		t.Fatalf("II %v, direct %v", got.II[output], want.Exec.II(output))
	}
}

// TestMachineModelRuns covers the packet-level model end to end: the
// service result must match a value-level reference (machine timing
// differs from exec, so only values are compared).
func TestMachineModelRuns(t *testing.T) {
	p := progs.Fig2(64)
	want := directRun(t, p)

	s := newService(t, Config{OffloadThreshold: -1})
	sp := spec(p)
	sp.Model = ModelMachine
	j, rej := s.Submit(nil, sp)
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j, 30*time.Second)
	if got := j.State(); got != StateDone {
		t.Fatalf("job state %s, err %q", got, j.View(false).Error)
	}
	res := j.Result()
	g, w := res.Outputs[p.Output], want.Outputs[p.Output]
	if len(g.Values) != len(w.Elems) {
		t.Fatalf("machine output %d values, want %d", len(g.Values), len(w.Elems))
	}
	for i := range w.Elems {
		if g.Values[i] != w.Elems[i] {
			t.Fatalf("machine output[%d] = %v, want %v", i, g.Values[i], w.Elems[i])
		}
	}
}

// TestQueueOverflowRejects429 pins the bounded-queue contract: with the
// pool wedged, excess submissions reject with 429/queue_full and a
// Retry-After hint — and the admission ledger still reconciles.
func TestQueueOverflowRejects429(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 2})

	// Wedge the single worker on a long job, then fill the queue.
	long := progs.Fig2(1 << 17)
	blocker, rej := s.Submit(nil, spec(long))
	if rej != nil {
		t.Fatalf("blocker rejected: %v", rej)
	}
	small := progs.Fig2(64)
	var queued []*Job
	var overflowed int
	for i := 0; i < 8; i++ {
		j, rej := s.Submit(nil, spec(small))
		if rej == nil {
			queued = append(queued, j)
			continue
		}
		overflowed++
		if rej.Status != 429 || rej.Reason != ReasonQueueFull {
			t.Fatalf("overflow rejection: status %d reason %s", rej.Status, rej.Reason)
		}
		if rej.RetryAfter <= 0 {
			t.Fatal("queue_full rejection carries no Retry-After hint")
		}
	}
	if overflowed == 0 {
		t.Fatal("queue depth 2 absorbed 8 submissions without overflow")
	}

	sub, adm, rejN := s.Counters("default")
	if sub != 9 || sub != adm+rejN {
		t.Fatalf("ledger: submitted %d admitted %d rejected %d", sub, adm, rejN)
	}

	// Unwedge and drain so Cleanup's Close isn't stuck behind the blocker.
	s.Cancel(blocker.ID)
	await(t, blocker, 30*time.Second)
	for _, j := range queued {
		await(t, j, 30*time.Second)
	}
}

// TestTenantThrottle pins the token bucket: burst admits, the next
// submission rejects as throttled with a Retry-After derived from the
// refill rate, and tenants are isolated from each other.
func TestTenantThrottle(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: 1 << 40, TenantRate: 0.01, TenantBurst: 2})
	p := spec(progs.Fig2(16))
	p.Tenant = "alice"
	for i := 0; i < 2; i++ {
		if _, rej := s.Submit(nil, p); rej != nil {
			t.Fatalf("burst submission %d rejected: %v", i, rej)
		}
	}
	_, rej := s.Submit(nil, p)
	if rej == nil {
		t.Fatal("third submission admitted past burst 2")
	}
	if rej.Status != 429 || rej.Reason != ReasonThrottled {
		t.Fatalf("throttle rejection: status %d reason %s", rej.Status, rej.Reason)
	}
	if rej.RetryAfter < 1 {
		t.Fatalf("Retry-After %d, want >= 1s at 0.01 jobs/sec", rej.RetryAfter)
	}
	// Another tenant's bucket is untouched.
	p.Tenant = "bob"
	if _, rej := s.Submit(nil, p); rej != nil {
		t.Fatalf("other tenant throttled: %v", rej)
	}
}

// TestCancelQueuedJob: canceling a job the pool never picked up must
// transition it straight to canceled, with no result.
func TestCancelQueuedJob(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 8})
	blocker, rej := s.Submit(nil, spec(progs.Fig2(1<<17)))
	if rej != nil {
		t.Fatalf("blocker rejected: %v", rej)
	}
	victim, rej := s.Submit(nil, spec(progs.Fig2(64)))
	if rej != nil {
		t.Fatalf("victim rejected: %v", rej)
	}
	if _, ok := s.Cancel(victim.ID); !ok {
		t.Fatal("Cancel did not find the queued job")
	}
	await(t, victim, time.Second)
	if st := victim.State(); st != StateCanceled {
		t.Fatalf("canceled queued job in state %s", st)
	}
	if victim.Result() != nil {
		t.Fatal("never-started job has a result")
	}
	s.Cancel(blocker.ID)
	await(t, blocker, 30*time.Second)
}

// TestCancelRunningJobReturnsPartial pins the in-flight cancellation
// contract: the job goes terminal promptly (the simulator polls its
// context every CancelCadence cycles) and hands back the partial result.
func TestCancelRunningJobReturnsPartial(t *testing.T) {
	n := 1 << 19
	s := newService(t, Config{OffloadThreshold: -1, PoolWorkers: 1})
	j, rej := s.Submit(nil, spec(progs.Fig2(n)))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() == StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Cancel(j.ID)
	await(t, j, 10*time.Second)
	if st := j.State(); st != StateCanceled {
		if st == StateDone {
			t.Skipf("job finished before the cancel landed (machine too fast for n=%d)", n)
		}
		t.Fatalf("canceled running job in state %s", st)
	}
	res := j.Result()
	if res == nil || !res.Canceled {
		t.Fatalf("canceled job result: %+v", res)
	}
	if len(res.Stalled) == 0 || !strings.HasPrefix(res.Stalled[0], "canceled:") {
		t.Fatalf("canceled result lacks the canceled diagnostic: %v", res.Stalled)
	}
	if got := len(res.Outputs["Y"].Values); got >= n {
		t.Fatalf("canceled run produced the full output (%d values)", got)
	}
	// Partial values must be a prefix of the true output.
	want := directRun(t, progs.Fig2(n))
	for i, v := range res.Outputs["Y"].Values {
		if v != want.Outputs["Y"].Elems[i] {
			t.Fatalf("partial output[%d] = %v, direct %v", i, v, want.Outputs["Y"].Elems[i])
		}
	}
}

// TestEviction pins the bounded result store: per tenant, only the newest
// KeepFinished terminal jobs stay retrievable; evictions are counted.
func TestEviction(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: 1 << 40, KeepFinished: 2})
	p := spec(progs.Fig2(16))
	p.Tenant = "hoarder"
	var ids []int64
	for i := 0; i < 5; i++ {
		j, rej := s.Submit(nil, p)
		if rej != nil {
			t.Fatalf("submission %d rejected: %v", i, rej)
		}
		ids = append(ids, j.ID)
	}
	if got := len(s.List("hoarder")); got != 2 {
		t.Fatalf("tracking %d jobs, want 2", got)
	}
	for _, id := range ids[:3] {
		if s.Get(id) != nil {
			t.Fatalf("job %d not evicted", id)
		}
	}
	for _, id := range ids[3:] {
		if s.Get(id) == nil {
			t.Fatalf("recent job %d evicted", id)
		}
	}
	var b strings.Builder
	s.WriteMetrics(&b)
	if !strings.Contains(b.String(), `staticpipe_serve_evicted_total{tenant="hoarder"} 3`) {
		t.Fatalf("eviction counter missing or wrong:\n%s", b.String())
	}
	// Other tenants are unaffected by hoarder's eviction pressure.
	q := spec(progs.Fig2(16))
	q.Tenant = "frugal"
	j, _ := s.Submit(nil, q)
	if s.Get(j.ID) == nil {
		t.Fatal("frugal tenant's job evicted by hoarder's history")
	}
}

// TestInvalidSpecRejects400 covers the three client-error classes: parse
// failure, unknown model, bad input binding.
func TestInvalidSpecRejects400(t *testing.T) {
	s := newService(t, Config{})
	cases := []Spec{
		{Source: "this is not val"},
		{Source: progs.Fig2(8).Source, Model: "quantum"},
		{Source: progs.Fig2(8).Source, Inputs: map[string]Stream{"nope": value.Reals([]float64{1})}},
	}
	for i, sp := range cases {
		_, rej := s.Submit(nil, sp)
		if rej == nil {
			t.Fatalf("case %d admitted", i)
		}
		if rej.Status != 400 || rej.Reason != ReasonInvalid {
			t.Fatalf("case %d: status %d reason %s", i, rej.Status, rej.Reason)
		}
	}
	if sub, adm, rejN := s.Counters("default"); sub != 3 || adm != 0 || rejN != 3 {
		t.Fatalf("ledger: submitted %d admitted %d rejected %d", sub, adm, rejN)
	}
}

// TestSubmitAfterCloseRejectsShutdown: a draining service turns
// submissions away with 503 and still reconciles its ledger.
func TestSubmitAfterCloseRejectsShutdown(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	_, rej := s.Submit(nil, spec(progs.Fig2(8)))
	if rej == nil || rej.Status != 503 || rej.Reason != ReasonShutdown {
		t.Fatalf("rejection: %+v", rej)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTelemetryRunsRegistered: executing jobs appear in the telemetry
// registry under tenant/j<id> and are finished with the job.
func TestTelemetryRunsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newService(t, Config{OffloadThreshold: 1 << 40, Registry: reg})
	p := spec(progs.Fig2(32))
	p.Tenant = "obs"
	j, rej := s.Submit(nil, p)
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	runs := reg.Runs()
	if len(runs) != 1 {
		t.Fatalf("%d telemetry runs, want 1", len(runs))
	}
	info := runs[0].Info()
	want := fmt.Sprintf("obs/j%d", j.ID)
	if info.Label != want {
		t.Fatalf("run label %q, want %q", info.Label, want)
	}
	if info.State != telemetry.StateDone {
		t.Fatalf("run state %v after job completion", info.State)
	}
}

// TestCostEstimateOrdering sanity-checks the admission cost model: more
// data and more cells must both raise the estimate, and the estimate is
// capped by the cycle bound.
func TestCostEstimateOrdering(t *testing.T) {
	mk := func(p progs.Program, maxCycles int) int64 {
		u, err := core.CompileArtifact(p.Source, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp := spec(p)
		sp.MaxCycles = maxCycles
		cost, _ := estimateCost(u, sp)
		return cost
	}
	small := mk(progs.Fig2(16), exec.DefaultMaxCycles)
	big := mk(progs.Fig2(4096), exec.DefaultMaxCycles)
	if big <= small {
		t.Fatalf("cost(4096)=%d <= cost(16)=%d", big, small)
	}
	capped := mk(progs.Fig2(4096), 8)
	if capped >= big {
		t.Fatalf("cycle cap did not bound the estimate: %d >= %d", capped, big)
	}
}
