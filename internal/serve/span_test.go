package serve

import (
	"strings"
	"testing"
	"time"

	"staticpipe/internal/obs"
	"staticpipe/internal/progs"
)

// treeOf waits for the job's tree and snapshots it.
func treeOf(t *testing.T, j *Job) *obs.SpanJSON {
	t.Helper()
	snap := j.SpanTree().Snapshot()
	if snap == nil {
		t.Fatalf("job %d has no span tree", j.ID)
	}
	return snap
}

// TestFastPathSpanTree pins the span-tree shape of an inline job:
// job → admission + run, no queue.wait, root closed with correct label,
// duration consistent with the job's own elapsed clock.
func TestFastPathSpanTree(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: 1 << 40})
	j, rej := s.Submit(nil, spec(progs.Fig2(128)))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	root := treeOf(t, j)
	if root.Kind != obs.KindJob || root.Open {
		t.Fatalf("root = kind %s open=%v", root.Kind, root.Open)
	}
	if want := j.View(false); want.ID != 0 && !strings.HasSuffix(root.Name, "j1") {
		t.Fatalf("root name %q, want tenant/j1", root.Name)
	}
	if root.Attrs["state"] != string(StateDone) {
		t.Fatalf("root state attr = %v", root.Attrs)
	}
	adm := root.Find(obs.KindAdmission)
	if adm == nil || adm.Open {
		t.Fatalf("admission span = %+v", adm)
	}
	if adm.Attrs["path"] != PathFast || adm.Attrs["cost"] != j.Cost {
		t.Fatalf("admission attrs = %v (cost %d)", adm.Attrs, j.Cost)
	}
	if qs := root.Find(obs.KindQueueWait); qs != nil {
		t.Fatalf("fast-path job has a queue.wait span: %+v", qs)
	}
	run := root.Find(obs.KindRun)
	if run == nil || run.Open || run.Name != ModelExec {
		t.Fatalf("run span = %+v", run)
	}
	for _, k := range []string{"cells", "arcs", "cycles", "clean", "cost_ratio"} {
		if run.Attrs[k] == nil {
			t.Fatalf("run span missing %q: %v", k, run.Attrs)
		}
	}
	// Root duration tracks the job's wall clock.
	elapsed := j.View(false).ElapsedSec
	if root.DurSec <= 0 || root.DurSec > elapsed+0.25 {
		t.Fatalf("root duration %.4fs vs job elapsed %.4fs", root.DurSec, elapsed)
	}
}

// TestOffloadSpanTreeShape pins the offloaded shape: a queue.wait child
// between admission and run. SimWorkers shards only batched jobs' lanes, so
// this scalar job runs sequentially and its run span names no workers.
func TestOffloadSpanTreeShape(t *testing.T) {
	s := newService(t, Config{OffloadThreshold: -1, SimWorkers: 4})
	j, rej := s.Submit(nil, spec(progs.Fig2(256)))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	await(t, j, 30*time.Second)
	root := treeOf(t, j)
	qs := root.Find(obs.KindQueueWait)
	if qs == nil || qs.Open {
		t.Fatalf("queue.wait span = %+v", qs)
	}
	run := root.Find(obs.KindRun)
	if run == nil || run.Open {
		t.Fatalf("run span = %+v", run)
	}
	if w, ok := run.Attrs["workers"]; ok || len(run.Children) != 0 {
		t.Fatalf("scalar run span has workers=%v and %d children, want neither", w, len(run.Children))
	}
	// Phase spans are ordered admission → queue.wait → run.
	kinds := make([]string, len(root.Children))
	for i, c := range root.Children {
		kinds[i] = c.Kind
	}
	want := []string{obs.KindAdmission, obs.KindQueueWait, obs.KindRun}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("phase order = %v, want %v", kinds, want)
	}
}

// TestBatchedSpanTreeHasLanes pins per-lane children on batched jobs.
func TestBatchedSpanTreeHasLanes(t *testing.T) {
	p := progs.Fig2(64)
	sp := spec(p)
	sp.Batch = 4
	s := newService(t, Config{OffloadThreshold: 1 << 40})
	j, rej := s.Submit(nil, sp)
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	run := treeOf(t, j).Find(obs.KindRun)
	if run == nil {
		t.Fatal("no run span")
	}
	var lanes int
	for _, c := range run.Children {
		if c.Kind == obs.KindLane {
			lanes++
		}
	}
	if lanes != 4 {
		t.Fatalf("lane children = %d, want 4", lanes)
	}
}

// TestFlightRecordsJobAndAdmission checks the always-on recorder sees the
// tree and the admission decision without any per-job opt-in.
func TestFlightRecordsJobAndAdmission(t *testing.T) {
	fl := obs.NewFlight(0, 0, 0)
	s := newService(t, Config{OffloadThreshold: 1 << 40, Flight: fl})
	j, rej := s.Submit(nil, spec(progs.Fig2(64)))
	if rej != nil {
		t.Fatalf("rejected: %v", rej)
	}
	d := fl.Dump()
	if len(d.Spans) != 1 || d.Spans[0].Kind != obs.KindJob {
		t.Fatalf("flight spans = %+v", d.Spans)
	}
	if len(d.Admissions) != 1 || d.Admissions[0].JobID != j.ID || d.Admissions[0].Decision != PathFast {
		t.Fatalf("flight admissions = %+v", d.Admissions)
	}
	// A rejected submission leaves an admission record too.
	if _, rej := s.Submit(nil, Spec{Source: "not a program"}); rej == nil {
		t.Fatal("bad source admitted")
	}
	d = fl.Dump()
	if len(d.Admissions) != 2 || d.Admissions[1].Decision != "rejected:"+ReasonInvalid {
		t.Fatalf("flight admissions after reject = %+v", d.Admissions)
	}
}

// TestSLOObservedOnCompletion checks that a clean run feeds every
// applicable objective and the verdict stays ok.
func TestSLOObservedOnCompletion(t *testing.T) {
	slo := DefaultSLOs()
	s := newService(t, Config{OffloadThreshold: 1 << 40, SLO: slo})
	for i := 0; i < 4; i++ {
		if _, rej := s.Submit(nil, spec(progs.Fig2(64))); rej != nil {
			t.Fatalf("rejected: %v", rej)
		}
	}
	byName := map[string]obs.SLOStatus{}
	for _, st := range slo.Evaluate() {
		byName[st.Name] = st
	}
	for _, name := range []string{SLOQueueWait, SLOJobErrors, SLOCostModel, SLOStallFree} {
		st, ok := byName[name]
		if !ok {
			t.Fatalf("objective %s missing", name)
		}
		if st.GoodTotal == 0 || st.BadTotal != 0 {
			t.Fatalf("%s totals = %d good / %d bad", name, st.GoodTotal, st.BadTotal)
		}
	}
	if v := slo.Verdict(); v != "slo: ok" {
		t.Fatalf("verdict = %q", v)
	}
}

// TestSLOBurnsUnderSaturation pins the degraded path: queue waits past the
// bound classify bad, and sustained bad traffic trips the greppable
// burning verdict while the flight recorder holds the offending trees.
func TestSLOBurnsUnderSaturation(t *testing.T) {
	slo := DefaultSLOs()
	fl := obs.NewFlight(0, 0, 0)
	s := newService(t, Config{
		OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 64,
		SLO: slo, Flight: fl,
		SLOQueueWaitMax: time.Nanosecond, // every queue wait classifies bad
	})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, rej := s.Submit(nil, spec(progs.Fig2(64)))
		if rej != nil {
			t.Fatalf("rejected: %v", rej)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		await(t, j, 30*time.Second)
	}
	v := slo.Verdict()
	if !strings.Contains(v, "slo: burning") || !strings.Contains(v, SLOQueueWait) {
		t.Fatalf("verdict = %q, want burning %s", v, SLOQueueWait)
	}
	if d := fl.Dump(); len(d.Spans) != len(jobs) {
		t.Fatalf("flight holds %d trees, want %d", len(d.Spans), len(jobs))
	}
}

// TestDoneClosesAfterRecording pins the order of a terminal transition: a
// caller woken by Done reads it whole — the run and root spans closed, the
// tree in the flight recorder, the SLO observations made — both when a
// pool worker completes the job and when Cancel retires a queued one on
// another goroutine. scripts/ci.sh races it repeatedly.
func TestDoneClosesAfterRecording(t *testing.T) {
	slo := DefaultSLOs()
	fl := obs.NewFlight(0, 0, 0)
	s := newService(t, Config{OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 8, SLO: slo, Flight: fl})
	observed := func() int64 {
		for _, st := range slo.Evaluate() {
			if st.Name == SLOJobErrors {
				return st.GoodTotal + st.BadTotal
			}
		}
		return 0
	}
	for i := 1; i <= 3; i++ {
		j, rej := s.Submit(nil, spec(progs.Fig2(64)))
		if rej != nil {
			t.Fatalf("rejected: %v", rej)
		}
		await(t, j, 30*time.Second)
		root := treeOf(t, j)
		if root.Open {
			t.Fatalf("job %d: root span open after Done", i)
		}
		if run := root.Find(obs.KindRun); run == nil || run.Open || run.Attrs["cost_ratio"] == nil {
			t.Fatalf("job %d: run span after Done = %+v", i, run)
		}
		if got := len(fl.Dump().Spans); got != i {
			t.Fatalf("job %d: flight holds %d trees after Done, want %d", i, got, i)
		}
		if got := observed(); got != int64(i) {
			t.Fatalf("job %d: %d job-error observations after Done, want %d", i, got, i)
		}
	}

	blocker, rej := s.Submit(nil, spec(progs.Fig2(1<<17)))
	if rej != nil {
		t.Fatalf("blocker rejected: %v", rej)
	}
	victim, rej := s.Submit(nil, spec(progs.Fig2(64)))
	if rej != nil {
		t.Fatalf("victim rejected: %v", rej)
	}
	type view struct {
		open         bool
		trees        int
		observations int64
	}
	woke := make(chan view)
	go func() {
		<-victim.Done()
		woke <- view{victim.SpanTree().Snapshot().Open, len(fl.Dump().Spans), observed()}
	}()
	s.Cancel(victim.ID)
	if st := victim.State(); st != StateCanceled {
		t.Fatalf("victim in state %s, want canceled while queued", st)
	}
	if got, want := <-woke, (view{false, 4, 4}); got != want {
		t.Fatalf("waiter woken by Done read %+v, want %+v", got, want)
	}
	s.Cancel(blocker.ID)
	await(t, blocker, 30*time.Second)
}

// TestSpanRecordingDoesNotPerturbResults pins the service-level
// zero-perturbation bound: the same spec through a span/flight/SLO-laden
// service yields byte-identical simulation results to a bare one.
func TestSpanRecordingDoesNotPerturbResults(t *testing.T) {
	p := progs.Fig2(256)
	bare := newService(t, Config{OffloadThreshold: -1, SimWorkers: 4})
	laden := newService(t, Config{OffloadThreshold: -1, SimWorkers: 4,
		Flight: obs.NewFlight(0, 0, 0), SLO: DefaultSLOs()})
	jb, rej := bare.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("bare rejected: %v", rej)
	}
	jl, rej := laden.Submit(nil, spec(p))
	if rej != nil {
		t.Fatalf("laden rejected: %v", rej)
	}
	await(t, jb, 30*time.Second)
	await(t, jl, 30*time.Second)
	rb, rl := jb.Result(), jl.Result()
	if rb == nil || rl == nil {
		t.Fatal("missing results")
	}
	if rb.Cycles != rl.Cycles || rb.Clean != rl.Clean {
		t.Fatalf("cycles/clean diverged: %d/%v vs %d/%v", rb.Cycles, rb.Clean, rl.Cycles, rl.Clean)
	}
	gb, gl := rb.Outputs[p.Output], rl.Outputs[p.Output]
	if len(gb.Values) != len(gl.Values) {
		t.Fatalf("output lengths diverged: %d vs %d", len(gb.Values), len(gl.Values))
	}
	for i := range gb.Values {
		if gb.Values[i] != gl.Values[i] {
			t.Fatalf("output[%d] diverged: %v vs %v", i, gb.Values[i], gl.Values[i])
		}
	}
}

// TestFlightDumpDuringActiveRuns races flight dumps against live traffic —
// the ci.sh race pin for the recorder's locking discipline.
func TestFlightDumpDuringActiveRuns(t *testing.T) {
	fl := obs.NewFlight(8, 32, 8)
	s := newService(t, Config{OffloadThreshold: -1, SimWorkers: 2, Flight: fl, SLO: DefaultSLOs()})
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				fl.Dump()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, rej := s.Submit(nil, spec(progs.Fig2(128)))
		if rej != nil {
			t.Fatalf("rejected: %v", rej)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		await(t, j, 30*time.Second)
	}
	close(stop)
	if d := fl.Dump(); len(d.Spans) == 0 {
		t.Fatal("no trees recorded")
	}
}
