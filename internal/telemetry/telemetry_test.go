package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/trace"
)

// startMeta builds a small two-cell, two-unit trace.Meta for feeding events
// into a run's sink by hand.
func startMeta() trace.Meta {
	return trace.Meta{
		Cells: []string{"c0", "c1"},
		Units: []string{"PE0", "FU0"},
	}
}

// emitCycles drives n firing cycles (cell 0 fires every cycle, an op packet
// is delivered to FU0 and started two cycles later) into the run's sink and
// progress counters, starting at cycle base.
func emitCycles(r *Run, base, n int64) {
	lv := r.Tracer()
	for c := base; c < base+n; c++ {
		r.Progress().Cycle.Store(c)
		lv.Emit(trace.Event{Cycle: c, Kind: trace.KindFiring, Cell: 0, Unit: 0})
		lv.Emit(trace.Event{Cycle: c, Kind: trace.KindDeliver, Unit: 1, Dst: 1,
			Packet: trace.PacketOp, Aux: 3})
		lv.Emit(trace.Event{Cycle: c + 2, Kind: trace.KindFUStart, Unit: 1, Aux: 4})
		r.Progress().Arrivals.Add(1)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewRun("fig2/exec", "exec")
	b := reg.NewRun("fig2/machine", "machine")
	if a.Label() != "fig2/exec" || b.Label() != "fig2/machine" {
		t.Fatalf("labels: %q, %q", a.Label(), b.Label())
	}
	runs := reg.Runs()
	if len(runs) != 2 || runs[0] != a || runs[1] != b {
		t.Fatalf("Runs() = %v", runs)
	}

	a.Tracer().Start(startMeta())
	emitCycles(a, 1, 10)
	in := a.Info()
	if in.State != StateRunning || in.Cycle != 10 || in.Arrivals != 10 {
		t.Errorf("running info = %+v", in)
	}
	if in.ID != 1 || b.Info().ID != 2 {
		t.Errorf("ids: %d, %d", in.ID, b.Info().ID)
	}

	a.AddWarnings("w1", "w2")
	a.Finish(nil)
	a.Finish(errors.New("late")) // idempotent: first Finish wins
	in = a.Info()
	if in.State != StateDone || in.Error != "" {
		t.Errorf("done info = %+v", in)
	}
	if len(in.Warnings) != 2 {
		t.Errorf("warnings = %v", in.Warnings)
	}
	if in.Cycle != 10 {
		t.Errorf("final cycle = %d, want 10 (frozen at Finish)", in.Cycle)
	}

	b.Finish(errors.New("deadlock at cycle 7"))
	if in := b.Info(); in.State != StateFailed || in.Error == "" {
		t.Errorf("failed info = %+v", in)
	}
}

// A scrape during a live run must reflect progress: counters and histogram
// buckets change between two scrapes with emission in between, and within
// one scrape the snapshot is consistent.
func TestMetricsChangeBetweenScrapes(t *testing.T) {
	reg := NewRegistry()
	run := reg.NewRun("live", "exec")
	run.Tracer().Start(startMeta())
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	sample := func(body, metric string) int64 {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + `\{[^}]*\} (\d+)$`)
		m := re.FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s not found in scrape:\n%s", metric, body)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}

	emitCycles(run, 1, 50)
	s1 := scrape()
	emitCycles(run, 51, 200)
	s2 := scrape()

	for _, m := range []string{
		"staticpipe_run_cycle",
		"staticpipe_cell_firings_total",
		"staticpipe_cell_interfiring_cycles_count",
		"staticpipe_fu_service_cycles_count",
	} {
		v1, v2 := sample(s1, m), sample(s2, m)
		if v2 <= v1 {
			t.Errorf("%s did not advance between scrapes: %d -> %d", m, v1, v2)
		}
	}
	// The interval histogram is all-ones, so its first bucket is cumulative
	// and must itself grow — a live bucket change, not just the count.
	bucket := regexp.MustCompile(`staticpipe_cell_interfiring_cycles_bucket\{[^}]*le="1"\} (\d+)`)
	b1 := bucket.FindStringSubmatch(s1)
	b2 := bucket.FindStringSubmatch(s2)
	if b1 == nil || b2 == nil || b1[1] == b2[1] {
		t.Errorf("le=\"1\" bucket did not change between scrapes: %v -> %v", b1, b2)
	}
	// Required histogram structure: +Inf bucket, _sum, _count all present.
	for _, frag := range []string{
		`staticpipe_cell_interfiring_cycles_bucket{run="live",cell="c0",le="+Inf"}`,
		`staticpipe_cell_interfiring_cycles_sum{run="live",cell="c0"}`,
		`staticpipe_fu_service_cycles_bucket{run="live",unit="FU0",le="+Inf"}`,
	} {
		if !strings.Contains(s2, frag) {
			t.Errorf("scrape missing %s", frag)
		}
	}
	if !strings.Contains(s2, `staticpipe_run_info{run="live",model="exec",state="running"} 1`) {
		t.Errorf("scrape missing run_info series:\n%s", s2)
	}
}

// Scraping while several runs emit concurrently must never tear or race
// (this test is the telemetry half of the -race pin). Four runs, two per
// model, each emit from their own goroutine, as dfserve registers one run
// per concurrent job; every scrape must be well-formed exposition text,
// and every run must end done with its cycles and events.
func TestConcurrentScrapeDuringEmission(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	var wg sync.WaitGroup
	for i, model := range []string{"exec", "machine", "exec", "machine"} {
		run := reg.NewRun(fmt.Sprintf("job%d/%s", i, model), model)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.Tracer().Start(startMeta())
			emitCycles(run, 1, 2000)
			run.Finish(nil)
		}()
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "staticpipe_run_info") {
			t.Fatalf("scrape %d missing run_info", i)
		}
		if problems := LintExposition(strings.NewReader(string(body))); len(problems) > 0 {
			t.Fatalf("scrape %d is not well-formed: %v", i, problems)
		}
	}
	wg.Wait()

	runs := reg.Runs()
	if len(runs) != 4 {
		t.Fatalf("registry holds %d runs, want 4", len(runs))
	}
	for _, run := range runs {
		in := run.Info()
		if in.State != StateDone {
			t.Errorf("run %s state = %s, want done", in.Label, in.State)
		}
		if in.Cycle == 0 {
			t.Errorf("run %s recorded no cycle progress", in.Label)
		}
		if snap := run.Tracer().Snapshot(); snap.Events == 0 {
			t.Errorf("run %s aggregated no events", in.Label)
		}
	}
}

func TestRunsEndpoint(t *testing.T) {
	reg := NewRegistry()
	run := reg.NewRun("fig2/exec", "exec")
	run.Tracer().Start(startMeta())
	emitCycles(run, 1, 25)
	done := reg.NewRun("short", "machine")
	done.Finish(errors.New("boom"))
	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var infos []RunInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d runs", len(infos))
	}
	if infos[0].Label != "fig2/exec" || infos[0].State != StateRunning || infos[0].Cycle != 25 {
		t.Errorf("run 0 = %+v", infos[0])
	}
	if infos[1].State != StateFailed || infos[1].Error != "boom" {
		t.Errorf("run 1 = %+v", infos[1])
	}
}

func TestHealthzAndPprof(t *testing.T) {
	srv := httptest.NewServer(NewMux(NewRegistry()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string            `json:"status"`
		Build  map[string]string `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Build["go_version"] == "" {
		t.Errorf("healthz build info missing go_version: %v", h.Build)
	}

	pp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", pp.StatusCode)
	}
	body, _ := io.ReadAll(pp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles")
	}
}

// Serve must bind synchronously so an immediate scrape cannot race the
// listener, and label values with quotes/backslashes must be escaped.
func TestServeAndLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	run := reg.NewRun(`odd"label\with$chars`, "exec")
	run.Tracer().Start(startMeta())
	emitCycles(run, 1, 3)

	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `run="odd\"label\\with$chars"`
	if !strings.Contains(string(body), want) {
		t.Errorf("escaped label %s not found in scrape", want)
	}
}

// TestRegistryBoundsFinishedRuns pins the retention ring: finished runs
// beyond the KeepFinished bound are evicted oldest-first as new runs
// register, while running runs are never evicted regardless of age.
func TestRegistryBoundsFinishedRuns(t *testing.T) {
	reg := NewRegistry().KeepFinished(3)
	pinned := reg.NewRun("pinned", "exec") // stays running throughout
	for i := 0; i < 10; i++ {
		r := reg.NewRun("batch-"+strconv.Itoa(i), "exec")
		r.Finish(nil)
	}
	runs := reg.Runs()
	if len(runs) != 4 {
		t.Fatalf("registry holds %d runs, want 4 (1 running + 3 finished)", len(runs))
	}
	if runs[0] != pinned {
		t.Error("the running run was evicted")
	}
	labels := make([]string, 0, 3)
	for _, r := range runs[1:] {
		labels = append(labels, r.Label())
	}
	want := []string{"batch-7", "batch-8", "batch-9"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("retained finished runs %v, want %v (newest kept)", labels, want)
		}
	}
	// Tightening the bound prunes immediately.
	reg.KeepFinished(1)
	if got := len(reg.Runs()); got != 2 {
		t.Errorf("after KeepFinished(1): %d runs, want 2", got)
	}
	// Negative disables eviction.
	reg.KeepFinished(-1)
	for i := 0; i < 5; i++ {
		reg.NewRun("keep-"+strconv.Itoa(i), "exec").Finish(nil)
	}
	if got := len(reg.Runs()); got != 7 {
		t.Errorf("with retention disabled: %d runs, want 7", got)
	}
}

// TestDefaultRetentionBound checks the default registry keeps
// DefaultKeepFinished finished runs.
func TestDefaultRetentionBound(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < DefaultKeepFinished+20; i++ {
		reg.NewRun("r"+strconv.Itoa(i), "exec").Finish(nil)
	}
	if got := len(reg.Runs()); got != DefaultKeepFinished {
		t.Errorf("default registry holds %d finished runs, want %d", got, DefaultKeepFinished)
	}
}

func TestBatchMetricFamilies(t *testing.T) {
	reg := NewRegistry()
	scalar := reg.NewRun("scalar", "exec")
	scalar.Tracer().Start(startMeta())
	bat := reg.NewRun("bat", "exec")
	bat.Tracer().Start(startMeta())
	lanes := bat.Progress().InitLanes(3)
	lanes[0].Cycles.Store(120)
	lanes[0].Arrivals.Store(16)
	lanes[0].Done.Store(1)
	lanes[1].Cycles.Store(117)
	lanes[1].Arrivals.Store(14)
	lanes[2].Cycles.Store(119)
	lanes[2].Arrivals.Store(15)

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()
	for _, want := range []string{
		`staticpipe_batch_lanes{run="bat"} 3`,
		`staticpipe_batch_lanes_active{run="bat"} 2`,
		`staticpipe_batch_lane_cycles{run="bat",lane="1"} 117`,
		`staticpipe_batch_lane_arrivals_total{run="bat",lane="2"} 15`,
		`staticpipe_batch_progress_skew{run="bat"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(out, `run="scalar",lane=`) || strings.Contains(out, `staticpipe_batch_lanes{run="scalar"}`) {
		t.Error("scalar run published batch series")
	}
}
