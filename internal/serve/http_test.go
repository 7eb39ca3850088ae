package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"staticpipe/internal/progs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/value"
)

// newHTTPService stands up the full dfserve handler stack — telemetry mux
// with the serve metrics appender, job API registered on top — exactly as
// cmd/dfserve wires it.
func newHTTPService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	s := newService(t, cfg)
	mux := telemetry.NewMux(reg, s.WriteMetrics)
	s.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, sp Spec) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp, view
}

// TestHTTPFastPathDifferential is the wire-level half of the differential
// pin: a fast-path submission's JSON response must decode to values
// byte-identical to a direct core.Artifact.Run — Go's float64 JSON encoding
// is shortest-round-trip, so exact equality is required, not approximate.
func TestHTTPFastPathDifferential(t *testing.T) {
	p := progs.Fig2(128)
	want := directRun(t, p)
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})

	resp, view := postJob(t, ts, spec(p))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast path status %d, want 200", resp.StatusCode)
	}
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("fast-path response not terminal: %+v", view)
	}
	assertMatches(t, view.Result, want, p.Output)
}

// fill is an endless reader of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestHTTPSubmitBodyLimit pins the POST /jobs body bound: a body past
// maxSubmitBytes is refused with 413 and reason invalid, and the service
// goes on to run the next valid job.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})
	body := io.MultiReader(strings.NewReader(`{"source": "`),
		io.LimitReader(fill('x'), maxSubmitBytes), strings.NewReader(`"}`))
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", body))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Reason != ReasonInvalid {
		t.Fatalf("over-limit body: status %d, body %.200q (err %v), want 413 with reason %q",
			rec.Code, rec.Body.Bytes(), err, ReasonInvalid)
	}
	resp, view := postJob(t, ts, spec(progs.Fig2(32)))
	if resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("job after the refusal: status %d, state %s", resp.StatusCode, view.State)
	}
}

// unread fails the test that reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("body read after its Content-Length was refused")
	return 0, io.EOF
}

// TestHTTPSubmitDeclaredLengthLimit: a POST /jobs whose Content-Length
// exceeds maxSubmitBytes is refused with 413 and reason invalid before
// the handler reads a byte of it.
func TestHTTPSubmitDeclaredLengthLimit(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})
	req := httptest.NewRequest(http.MethodPost, "/jobs", unread{t})
	req.ContentLength = maxSubmitBytes + 1
	rec := httptest.NewRecorder()
	ts.Config.Handler.ServeHTTP(rec, req)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusRequestEntityTooLarge || eb.Reason != ReasonInvalid {
		t.Fatalf("declared over-limit body: status %d, body %q (err %v), want 413 with reason %q",
			rec.Code, rec.Body.Bytes(), err, ReasonInvalid)
	}
}

// TestHTTPSubmitTrailingBytes pins that a POST /jobs body is one JSON
// object and nothing more: bytes after the object (a second object,
// stray text) are a 400 with reason invalid, while trailing white space
// is accepted.
func TestHTTPSubmitTrailingBytes(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})
	job, err := json.Marshal(spec(progs.Fig2(32)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tail string
		code int
	}{
		{"", http.StatusOK},
		{" \n\t", http.StatusOK},
		{"x", http.StatusBadRequest},
		{`{"source": ""}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		body := append(append([]byte(nil), job...), tc.tail...)
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code != tc.code {
			t.Fatalf("tail %q: status %d, want %d (body %.200q)", tc.tail, rec.Code, tc.code, rec.Body.Bytes())
		}
		if tc.code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Reason != ReasonInvalid {
				t.Fatalf("tail %q: error body %q (err %v), want reason %q", tc.tail, rec.Body.Bytes(), err, ReasonInvalid)
			}
		}
	}
}

// TestHTTPOffloadLifecycle walks the async path over the wire: 202 +
// Location on submit, polls GET /jobs/{id} to done, and checks the final
// result differentially.
func TestHTTPOffloadLifecycle(t *testing.T) {
	p := progs.Fig2(128)
	want := directRun(t, p)
	_, ts := newHTTPService(t, Config{OffloadThreshold: -1})

	resp, view := postJob(t, ts, spec(p))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("offload status %d, want 202", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("202 without a Location header")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status %d", loc, r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if view.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != StateDone {
		t.Fatalf("job ended %s: %s", view.State, view.Error)
	}
	assertMatches(t, view.Result, want, p.Output)
}

// TestHTTPRejectionSurfacing: a full queue surfaces as 429 with both the
// Retry-After header and the JSON reason.
func TestHTTPRejectionSurfacing(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 1})
	long := progs.Fig2(1 << 17)
	// Wedge worker + queue, then overflow.
	postJob(t, ts, spec(long))
	postJob(t, ts, spec(long))
	var overflowed bool
	for i := 0; i < 6 && !overflowed; i++ {
		body, _ := json.Marshal(spec(progs.Fig2(32)))
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := httpGetBody(resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			continue
		}
		overflowed = true
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Reason != ReasonQueueFull {
			t.Fatalf("429 body %q (err %v)", b, err)
		}
	}
	if !overflowed {
		t.Fatal("queue depth 1 never overflowed")
	}
	// Unblock: cancel everything so Cleanup can drain.
	cancelAll(t, ts)
}

func httpGetBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return buf.Bytes(), err
}

func cancelAll(t *testing.T, ts *httptest.Server) {
	t.Helper()
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	b, _ := httpGetBody(r)
	if err := json.Unmarshal(b, &views); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+strconv.FormatInt(v.ID, 10), nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestHTTPCancelEndpoint: DELETE /jobs/{id} cancels a queued job and
// returns its terminal view.
func TestHTTPCancelEndpoint(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: -1, PoolWorkers: 1, QueueDepth: 4})
	postJob(t, ts, spec(progs.Fig2(1<<17))) // wedge the worker
	resp, view := postJob(t, ts, spec(progs.Fig2(32)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+strconv.FormatInt(view.ID, 10), nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := httpGetBody(r)
	var got JobView
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("canceled job state %s", got.State)
	}
	cancelAll(t, ts)
}

// TestHTTPUnknownJob404s both on garbage and on unknown IDs.
func TestHTTPUnknownJob404s(t *testing.T) {
	_, ts := newHTTPService(t, Config{})
	for _, path := range []string{"/jobs/999999", "/jobs/xyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, r.StatusCode)
		}
	}
}

// TestHTTPEventsStream reads the SSE surface: at least one progress event,
// then a done event carrying the terminal result.
func TestHTTPEventsStream(t *testing.T) {
	p := progs.Fig2(128)
	want := directRun(t, p)
	_, ts := newHTTPService(t, Config{OffloadThreshold: -1, StreamInterval: 5 * time.Millisecond})
	resp, view := postJob(t, ts, spec(p))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/jobs/" + strconv.FormatInt(view.ID, 10) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var progress int
	var final JobView
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				progress++
			}
			if event == "done" {
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event: %v", err)
				}
			}
		}
		if final.ID != 0 {
			break
		}
	}
	if progress == 0 {
		t.Fatal("stream carried no progress events")
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("done event: %+v", final)
	}
	assertMatches(t, final.Result, want, p.Output)
}

// TestHTTPMetricsIncludesServeFamilies: the combined mux serves both the
// simulation families and the staticpipe_serve_* families on one scrape.
func TestHTTPMetricsIncludesServeFamilies(t *testing.T) {
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})
	postJob(t, ts, spec(progs.Fig2(16)))
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := httpGetBody(r)
	body := string(b)
	for _, want := range []string{
		"staticpipe_build_info",
		`staticpipe_serve_submitted_total{tenant="default"} 1`,
		`staticpipe_serve_admitted_total{tenant="default",path="fast"} 1`,
		`staticpipe_serve_jobs_completed_total{tenant="default",state="done"} 1`,
		"staticpipe_serve_queue_capacity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStreamJSONRoundTrip pins the wire encoding: reals as plain numbers,
// bools plain, ints tagged — and all three decode back exactly.
func TestStreamJSONRoundTrip(t *testing.T) {
	in := Stream{value.R(1.5), value.R(0.1), value.B(true), value.I(-3)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); !strings.HasPrefix(got, "[1.5,0.1,") {
		t.Fatalf("reals not plain numbers: %s", got)
	}
	var out Stream
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		// Ints round-trip through the tagged form and stay ints; reals and
		// bools come back bit-identical.
		if in[i].Kind() == value.Int {
			if out[i] != in[i] {
				t.Fatalf("[%d] %v != %v", i, out[i], in[i])
			}
			continue
		}
		if out[i] != in[i] {
			t.Fatalf("[%d] %v != %v", i, out[i], in[i])
		}
	}
}

// postRaw posts a hand-written body to /jobs and decodes the error
// envelope of a refusal.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("status %d: decoding the error envelope: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, eb
}

// fig2Body is Fig 2's job at n = 4 with A and B both bound to the raw JSON
// array arr, plus any more raw top-level fields.
func fig2Body(t *testing.T, arr, more string) string {
	t.Helper()
	src, err := json.Marshal(progs.Fig2(4).Source)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"source":%s,"inputs":{"A":%s,"B":%s}%s}`, src, arr, arr, more)
}

// TestHTTPRefusesBadElements: a null element, and a boolean or invalid
// element in a real array, in the inputs or in a lane's, is refused at
// admission with 400 and reason invalid on both paths, and the next valid
// job still runs.
func TestHTTPRefusesBadElements(t *testing.T) {
	for _, path := range []struct {
		name      string
		threshold int64
	}{{PathFast, 1 << 40}, {PathOffload, -1}} {
		t.Run(path.name, func(t *testing.T) {
			s, ts := newHTTPService(t, Config{OffloadThreshold: path.threshold})
			for _, tc := range []struct{ arr, more, want string }{
				{`[null, 1, 2, 3]`, "", "stream element 0: null"},
				{`[true, 1, 2, 3]`, "", "element 0 is boolean, want real"},
				{`[{"k":"invalid"}, 1, 2, 3]`, "", "element 0 is invalid, want real"},
				{`[0, 1, 2, 3]`, `,"batch":2,"lane_inputs":[null,{"B":[1, 2, false, 3]}]`, "lane 1 input B element 2 is boolean, want real"},
			} {
				code, eb := postRaw(t, ts, fig2Body(t, tc.arr, tc.more))
				if code != http.StatusBadRequest || eb.Reason != ReasonInvalid || !strings.Contains(eb.Error, tc.want) {
					t.Fatalf("%s%s: status %d, error %q (reason %q), want 400 with %q, reason %q",
						tc.arr, tc.more, code, eb.Error, eb.Reason, tc.want, ReasonInvalid)
				}
			}
			resp, view := postJob(t, ts, spec(progs.Fig2(4)))
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Fatalf("valid job after the refusals: status %d", resp.StatusCode)
			}
			j := s.Get(view.ID)
			await(t, j, 30*time.Second)
			if j.Path != path.name || j.State() != StateDone {
				t.Fatalf("valid job after the refusals: path %s, state %s", j.Path, j.State())
			}
		})
	}
}

// TestHTTPNonFiniteOutputs: a job whose output holds NaN and infinities
// answers with its full result, on POST and on GET, and the output reads
// back as a direct run's values.
func TestHTTPNonFiniteOutputs(t *testing.T) {
	p := progs.Program{
		Source: `param n = 4; input A : array[real] [1, n];
Y : array[real] := forall i in [1, n] y : real := A[i] / 0.; construct y endall;
output Y;`,
		Inputs: map[string][]value.Value{"A": value.Reals([]float64{1, 0, -1, 2})},
		Output: "Y",
	}
	want := directRun(t, p).Outputs["Y"].Elems
	if !math.IsInf(want[0].AsReal(), 1) || !math.IsNaN(want[1].AsReal()) || !math.IsInf(want[2].AsReal(), -1) {
		t.Fatalf("direct run computed %v, want [+Inf NaN -Inf +Inf]", want)
	}
	_, ts := newHTTPService(t, Config{OffloadThreshold: 1 << 40})
	resp, view := postJob(t, ts, spec(p))
	if resp.StatusCode != http.StatusOK || view.Result == nil {
		t.Fatalf("POST: status %d, result %v", resp.StatusCode, view.Result)
	}
	get, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, view.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var again JobView
	if err := json.NewDecoder(get.Body).Decode(&again); err != nil || get.StatusCode != http.StatusOK || again.Result == nil {
		t.Fatalf("GET: status %d, result %v (%v)", get.StatusCode, again.Result, err)
	}
	for _, v := range []JobView{view, again} {
		got := v.Result.Outputs["Y"].Values
		if len(got) != len(want) {
			t.Fatalf("output %v, direct run %v", got, want)
		}
		for i, w := range want {
			if g := got[i]; g != w && !(math.IsNaN(w.AsReal()) && g.Kind() == value.Real && math.IsNaN(g.AsReal())) {
				t.Fatalf("output[%d] = %v, direct run %v", i, g, w)
			}
		}
	}
}
