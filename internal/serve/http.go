package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"staticpipe/internal/obs"
)

// Register mounts the job API on mux:
//
//	POST   /jobs              submit (200 fast+result, 202 queued, 400/413/429/503 rejected)
//	GET    /jobs[?tenant=]    list tracked jobs (no result payloads)
//	GET    /jobs/{id}         one job; includes the result once terminal
//	POST   /jobs/{id}/cancel  request cancellation (DELETE /jobs/{id} is an alias)
//	GET    /jobs/{id}/events  SSE stream: progress events, then one final done event
//	GET    /jobs/{id}/span    the job's span tree (?format=chrome for trace-event JSON)
//	GET    /debug/flight      flight-recorder dump (only when Config.Flight is set)
//
// The mux is typically telemetry.NewMux(reg, svc.WriteMetrics), putting
// /jobs, /metrics, /runs, and /debug/pprof on one listener.
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/span", s.handleSpan)
	if s.cfg.Flight != nil {
		mux.Handle("GET /debug/flight", s.cfg.Flight.Handler())
	}
}

// writeJSON answers with v in compact JSON. It encodes v before it writes
// the status, so a value that cannot be encoded answers 500 with the error
// envelope, never a status without its body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		// Encode writes nothing when it fails, and an errorBody always
		// encodes.
		status = http.StatusInternalServerError
		json.NewEncoder(&body).Encode(errorBody{Error: fmt.Sprintf("encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body.Bytes())
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string `json:"error"`
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retry_after_sec,omitempty"`
}

// maxSubmitBytes bounds a POST /jobs body, so no submission can make the
// handler buffer an unbounded request. A job's inputs dominate its body:
// weather at 4096 elements is about 163 KB of JSON, and 10.5 MB with all
// 64 lanes of inputs bound (exec.MaxBatch), so 32 MiB leaves room for
// every real job.
const maxSubmitBytes = 32 << 20

// presizeBytes caps how much of a declared Content-Length readSubmit
// reserves before the bytes arrive, so that a header alone cannot make
// the handler hold 32 MiB; a longer body grows the buffer as it comes.
// Weather's scalar job at 4096 elements, about 163 KB, fits six times.
const presizeBytes = 1 << 20

// readSubmit reads a POST /jobs body whole into one buffer sized from its
// Content-Length, bounded by maxSubmitBytes. A declared length past the
// bound is refused before any byte is read.
func readSubmit(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxSubmitBytes {
		return nil, &http.MaxBytesError{Limit: maxSubmitBytes}
	}
	// The last read, the one that meets EOF, needs MinRead bytes of room.
	size := min(max(r.ContentLength, 0), presizeBytes) + bytes.MinRead
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	return buf.Bytes(), err
}

// handleSubmit admits one job spec. The body must be exactly one JSON
// object: json.Unmarshal refuses bytes after it (400).
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	body, err := readSubmit(w, r)
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: fmt.Sprintf("bad request body: %v", err), Reason: ReasonInvalid})
		return
	}
	j, rej := s.Submit(r.Context(), spec)
	if rej != nil {
		if rej.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rej.RetryAfter))
		}
		writeJSON(w, rej.Status, errorBody{Error: rej.Err.Error(), Reason: rej.Reason, RetryAfter: rej.RetryAfter})
		return
	}
	if j.Path == PathFast {
		writeJSON(w, http.StatusOK, j.View(true))
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/jobs/%d", j.ID))
	writeJSON(w, http.StatusAccepted, j.View(false))
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("tenant")))
}

// jobFromPath resolves {id}; a nil return means the 404 was written.
func (s *Service) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("bad job id %q", r.PathValue("id"))})
		return nil
	}
	j := s.Get(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %d (unknown or evicted)", id)})
		return nil
	}
	return j
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFromPath(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.View(true))
	}
}

// handleSpan serves the job's span tree: where its wall-clock went, from
// admission through per-lane execution. Open spans (a still-running job)
// report their duration as of the request.
func (s *Service) handleSpan(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	snap := j.SpanTree().Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("job %d has no span tree", j.ID)})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChrome(w, snap); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	s.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.View(true))
}

// handleEvents streams a job's lifecycle as server-sent events: a
// "progress" event (state + live cycle counters) every StreamInterval,
// then a single "done" event carrying the full terminal view, result
// included. The stream ends after done, or when the client disconnects.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	event := func(name string, v any) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
		flusher.Flush()
	}

	ticker := time.NewTicker(s.cfg.StreamInterval)
	defer ticker.Stop()
	event("progress", j.View(false))
	for {
		select {
		case <-j.Done():
			event("done", j.View(true))
			return
		case <-ticker.C:
			event("progress", j.View(false))
		case <-r.Context().Done():
			return
		}
	}
}
