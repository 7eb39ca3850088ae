package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"staticpipe/internal/telemetry"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTree(KindJob, "t0/j1")
	root := tr.Root()
	adm := root.Child(KindAdmission, "")
	adm.Set("cost", int64(1234))
	adm.End()
	run := root.Child(KindRun, "exec")
	run.Set("cycles", 42)
	for i := 0; i < 2; i++ {
		ln := run.ChildAt(KindLane, "lane[0]", run.StartTime(), time.Now())
		ln.Set("firings", int64(7))
	}
	run.End()
	root.End()

	j := tr.Snapshot()
	if j.Kind != KindJob || j.Name != "t0/j1" {
		t.Fatalf("root = %s %q", j.Kind, j.Name)
	}
	if len(j.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(j.Children))
	}
	if j.Children[0].Kind != KindAdmission || j.Children[1].Kind != KindRun {
		t.Fatalf("child kinds = %s, %s", j.Children[0].Kind, j.Children[1].Kind)
	}
	if got := j.Children[0].Attrs["cost"]; got != int64(1234) {
		t.Fatalf("admission cost attr = %v", got)
	}
	runJ := j.Find(KindRun)
	if runJ == nil || len(runJ.Children) != 2 {
		t.Fatalf("run span children = %+v", runJ)
	}
	if j.Open || runJ.Open {
		t.Fatalf("ended spans still open")
	}
	// The tree must marshal directly.
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("marshal tree: %v", err)
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.End()
	sp.Set("k", 1)
	if c := sp.Child(KindRun, "x"); c != nil {
		t.Fatalf("nil span child = %v", c)
	}
	if got := SpanFrom(nil); got != nil {
		t.Fatalf("SpanFrom(nil) = %v", got)
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatalf("SpanFrom(empty ctx) = %v", got)
	}
	var tr *Tree
	if tr.Root() != nil || tr.Snapshot() != nil {
		t.Fatalf("nil tree not inert")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTree(KindJob, "j")
	ctx := WithSpan(context.Background(), tr.Root())
	if got := SpanFrom(ctx); got != tr.Root() {
		t.Fatalf("SpanFrom = %v, want root", got)
	}
	// WithSpan(nil span) leaves the context unchanged.
	if ctx2 := WithSpan(ctx, nil); SpanFrom(ctx2) != tr.Root() {
		t.Fatalf("WithSpan(nil) dropped the active span")
	}
}

func TestSnapshotWhileRecordingIsConsistent(t *testing.T) {
	tr := NewTree(KindJob, "race")
	root := tr.Root()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := root.Child(KindRun, "r")
			c.Set("i", i)
			c.End()
		}
	}()
	for i := 0; i < 200; i++ {
		j := tr.Snapshot()
		if j == nil || j.Kind != KindJob {
			t.Fatalf("snapshot corrupted: %+v", j)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteChrome(t *testing.T) {
	tr := NewTree(KindJob, "j1")
	run := tr.Root().Child(KindRun, "exec")
	run.ChildAt(KindLane, "lane[0]", run.StartTime(), time.Now()).Set("firings", 3)
	run.End()
	tr.Root().End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	var complete int
	for _, e := range events {
		if e["ph"] == "X" {
			complete++
		}
	}
	if complete != 3 { // job, run, lane
		t.Fatalf("complete events = %d, want 3\n%s", complete, buf.String())
	}
	if err := WriteChrome(&buf, nil); err == nil {
		t.Fatalf("WriteChrome(nil) should error")
	}
}

func TestFlightRingsBoundAndOrder(t *testing.T) {
	f := NewFlight(2, 3, 2)
	for i := 0; i < 5; i++ {
		tr := NewTree(KindJob, string(rune('a'+i)))
		tr.Root().End()
		f.RecordTree(tr)
		f.RecordAdmission(AdmissionRecord{Tenant: "t", JobID: int64(i), Decision: "fast"})
	}
	d := f.Dump()
	if len(d.Spans) != 2 {
		t.Fatalf("trees retained = %d, want 2", len(d.Spans))
	}
	if d.Spans[0].Name != "d" || d.Spans[1].Name != "e" {
		t.Fatalf("tree order = %s, %s (want oldest-first d, e)", d.Spans[0].Name, d.Spans[1].Name)
	}
	if len(d.Admissions) != 3 || d.Admissions[0].JobID != 2 {
		t.Fatalf("admissions = %+v", d.Admissions)
	}
	// Stall truncation.
	diags := make([]string, 40)
	for i := range diags {
		diags[i] = "stranded"
	}
	f.RecordStall(StallSnapshot{Job: "t/j1", Diags: diags})
	d = f.Dump()
	if n := len(d.Stalls[0].Diags); n != maxStallDiags+1 {
		t.Fatalf("stall diags = %d, want %d", n, maxStallDiags+1)
	}
	// Nil recorder is inert.
	var nilF *Flight
	nilF.RecordTree(nil)
	nilF.RecordAdmission(AdmissionRecord{})
	nilF.RecordStall(StallSnapshot{})
	if nilF.Dump() == nil {
		t.Fatalf("nil flight Dump = nil")
	}
}

func TestFlightConcurrentDump(t *testing.T) {
	f := NewFlight(16, 16, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := NewTree(KindJob, "j")
				tr.Root().Child(KindRun, "r").End()
				f.RecordTree(tr)
				f.RecordAdmission(AdmissionRecord{JobID: int64(i)})
				f.RecordStall(StallSnapshot{Job: "j"})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if d := f.Dump(); d == nil {
			t.Fatal("nil dump")
		}
	}
	close(stop)
	wg.Wait()
}

// sloAt builds an engine with a controllable clock.
func sloAt(t0 time.Time, def SLODef) (*SLOEngine, *time.Time) {
	now := t0
	e := NewSLOEngine(def).SetClock(func() time.Time { return now })
	return e, &now
}

func TestSLOCleanTrafficStaysOK(t *testing.T) {
	e, _ := sloAt(time.Unix(1000, 0), SLODef{Name: "queue_wait", Target: 0.99})
	for i := 0; i < 100; i++ {
		e.Observe("queue_wait", true)
	}
	sts := e.Evaluate()
	if len(sts) != 1 || sts[0].Burning {
		t.Fatalf("clean traffic burning: %+v", sts)
	}
	if sts[0].FastSLI != 1 || sts[0].FastBurn != 0 {
		t.Fatalf("clean SLI/burn = %v/%v", sts[0].FastSLI, sts[0].FastBurn)
	}
	if v := e.Verdict(); v != "slo: ok" {
		t.Fatalf("verdict = %q", v)
	}
}

func TestSLOSustainedBadTrafficBurns(t *testing.T) {
	e, _ := sloAt(time.Unix(1000, 0), SLODef{Name: "queue_wait", Target: 0.99})
	for i := 0; i < 20; i++ {
		e.Observe("queue_wait", i%2 == 0) // 50% bad: burn 50x budget
	}
	sts := e.Evaluate()
	if !sts[0].Burning {
		t.Fatalf("sustained bad traffic not burning: %+v", sts[0])
	}
	v := e.Verdict()
	if !strings.HasPrefix(v, "slo: burning queue_wait") {
		t.Fatalf("verdict = %q", v)
	}
}

func TestSLOMinEventsGate(t *testing.T) {
	e, _ := sloAt(time.Unix(1000, 0), SLODef{Name: "errs", Target: 0.99, MinEvents: 4})
	e.Observe("errs", false) // one bad event alone must not alert
	if sts := e.Evaluate(); sts[0].Burning {
		t.Fatalf("single event tripped the alert: %+v", sts[0])
	}
}

func TestSLOWindowSlides(t *testing.T) {
	e, now := sloAt(time.Unix(1000, 0),
		SLODef{Name: "w", Target: 0.9, FastWindow: time.Minute, SlowWindow: 5 * time.Minute})
	for i := 0; i < 10; i++ {
		e.Observe("w", false)
	}
	if sts := e.Evaluate(); !sts[0].Burning {
		t.Fatalf("not burning while bad events are fresh")
	}
	// Advance past the fast window: fast burn clears, slow still sees them.
	*now = now.Add(2 * time.Minute)
	sts := e.Evaluate()
	if sts[0].FastEvents != 0 {
		t.Fatalf("fast window did not slide: %d events", sts[0].FastEvents)
	}
	if sts[0].Burning {
		t.Fatalf("alert did not clear after the fast window slid")
	}
	if sts[0].SlowBurn == 0 {
		t.Fatalf("slow window lost its events")
	}
	// Advance past the slow window: everything clears, totals remain.
	*now = now.Add(10 * time.Minute)
	sts = e.Evaluate()
	if sts[0].SlowBurn != 0 || sts[0].SlowSLI != 1 {
		t.Fatalf("slow window did not slide: %+v", sts[0])
	}
	if sts[0].BadTotal != 10 {
		t.Fatalf("lifetime totals pruned: %+v", sts[0])
	}
}

func TestSLOMetricsExposition(t *testing.T) {
	e, _ := sloAt(time.Unix(1000, 0), SLODef{Name: "queue_wait", Target: 0.99})
	e.Observe("queue_wait", true)
	e.Observe("queue_wait", false)
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE staticpipe_slo_target gauge",
		`staticpipe_slo_sli{slo="queue_wait",window="fast"}`,
		`staticpipe_slo_burn_rate{slo="queue_wait",window="slow"}`,
		`staticpipe_slo_burning{slo="queue_wait"}`,
		`staticpipe_slo_events_total{slo="queue_wait",result="good"} 1`,
		`staticpipe_slo_events_total{slo="queue_wait",result="bad"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil engine writes nothing and observes nothing.
	var nilE *SLOEngine
	nilE.Observe("x", true)
	nilE.WriteMetrics(&buf)
}

// TestSLOMetricsEscapeLabels pins the SLO exposition to the text format's
// label escaping: a name holding a tab, a quote and a newline renders as
// telemetry.Label renders it, and the whole exposition lints clean.
func TestSLOMetricsEscapeLabels(t *testing.T) {
	name := "wait\tfor \"it\"\nnow"
	e, _ := sloAt(time.Unix(1000, 0), SLODef{Name: name, Target: 0.99})
	e.Observe(name, true)
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	if problems := telemetry.LintExposition(bytes.NewReader(buf.Bytes())); len(problems) > 0 {
		t.Fatalf("exposition fails lint: %v\n%s", problems, buf.String())
	}
	want := "staticpipe_slo_target{" + telemetry.Label("slo", name) + "} 0.99\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}
	if n := strings.Count(buf.String(), telemetry.Label("slo", name)); n != 8 {
		t.Fatalf("%d series carry the escaped label, want 8:\n%s", n, buf.String())
	}
}
