package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"staticpipe/internal/core"
	"staticpipe/internal/obs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/trace"
)

// Spec is one compile+simulate job as submitted by a client.
type Spec struct {
	// Tenant names the quota account the job is billed to; empty maps to
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Source is the pipe-structured Val program to compile.
	Source string `json:"source"`
	// Inputs binds each declared input array to its stream (see Stream
	// for the element forms).
	Inputs map[string]Stream `json:"inputs"`
	// MaxCycles bounds the simulation (0 = the service default; the
	// service cap always applies).
	MaxCycles int `json:"max_cycles,omitempty"`
	// Model selects the simulator: "exec" (default, firing-rule) or
	// "machine" (cycle-accurate packet level).
	Model string `json:"model,omitempty"`
	// Workers shards a batched exec job's lanes across this many
	// goroutines (results are byte-identical for any count); scalar and
	// machine jobs run sequentially whatever it says. 0 lets the service
	// decide: fast-path jobs run on one goroutine, offloaded jobs use the
	// configured width.
	Workers int `json:"workers,omitempty"`
	// Batch advances B independent copies of the input streams through
	// one compiled graph in a single batched run (0 or 1 = scalar). Lane
	// 0 consumes Inputs and its results are byte-identical to a scalar
	// run; admission bills batched jobs at the amortized cost, not B
	// scalar runs.
	Batch int `json:"batch,omitempty"`
	// LaneInputs rebinds input streams per lane of a batched job: entry
	// l overrides lane l (nil entries, omitted names, and lane 0 fall
	// back to Inputs). Requires Batch > 1 and len <= Batch.
	LaneInputs []map[string]Stream `json:"lane_inputs,omitempty"`
}

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted to the offload queue, not yet picked up.
	StateQueued State = "queued"
	// StateRunning: executing on a pool worker or the fast path.
	StateRunning State = "running"
	// StateDone: finished cleanly; Result holds the full outputs.
	StateDone State = "done"
	// StateFailed: compile was fine but the run errored (livelock bound,
	// output shortfall); Result may hold partial outputs.
	StateFailed State = "failed"
	// StateCanceled: canceled while queued or in flight; Result holds the
	// partial outputs produced up to the cancellation cycle.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Output is one output array of a finished (or canceled) job.
type Output struct {
	Lo     int64  `json:"lo"`
	Lo2    int64  `json:"lo2,omitempty"`
	W      int    `json:"w,omitempty"`
	Values Stream `json:"values"`
}

// JobResult is the simulation outcome shipped back to clients. For a
// canceled or failed run it carries whatever the simulator produced up to
// the halt, with Canceled/Stalled saying why it is partial. For a batched
// job the top-level fields are lane 0's view (byte-identical to a scalar
// run) and Lanes carries every lane.
type JobResult struct {
	Cycles   int                `json:"cycles"`
	Clean    bool               `json:"clean"`
	Canceled bool               `json:"canceled,omitempty"`
	Stalled  []string           `json:"stalled,omitempty"`
	Outputs  map[string]Output  `json:"outputs"`
	II       map[string]float64 `json:"ii,omitempty"`
	// Batch echoes the lane count of a batched job (0 for scalar).
	Batch int `json:"batch,omitempty"`
	// Lanes holds one view per lane of a batched job; Lanes[0] repeats
	// the top-level fields.
	Lanes []LaneView `json:"lanes,omitempty"`
}

// LaneView is one lane of a batched job's result.
type LaneView struct {
	Cycles   int               `json:"cycles"`
	Clean    bool              `json:"clean"`
	Canceled bool              `json:"canceled,omitempty"`
	Outputs  map[string]Output `json:"outputs"`
}

// Job is one admitted submission.
type Job struct {
	// ID is the service-assigned identifier (stable across its lifetime).
	ID int64
	// Tenant is the resolved quota account.
	Tenant string
	// Path records the admission decision: "fast" or "offload".
	Path string
	// Cost is the admission-time cost estimate (cells × estimated
	// cycles) the fast/offload split was decided on.
	Cost int64
	// Model is the resolved simulator model.
	Model string

	spec Spec
	// art is the immutable compiled artifact the job runs. On a cache hit
	// several concurrent jobs share one art; nothing on the execution path
	// may mutate it (inputs travel with each run via core.Binding and the
	// cores' per-run input maps).
	art     *core.Artifact
	workers int
	maxCyc  int
	// cells is the compiled graph's cell count, kept from admission so
	// completion can score estimate-vs-actual cost without recomputing
	// graph statistics.
	cells int64

	ctx      context.Context
	cancelFn context.CancelFunc
	done     chan struct{} // closed at the terminal transition

	// tree is the job's span tree, rooted at submission; queueSpan is the
	// open queue.wait child of an offloaded job. Both are set before the
	// job becomes visible to other goroutines and never reassigned.
	tree      *obs.Tree
	queueSpan *obs.Span

	mu        sync.Mutex
	runSpan   *obs.Span       // open while the simulator runs; nil before
	run       *telemetry.Run  // registered at execution time; nil before
	prog      *trace.Progress // live while running; readable any time
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *JobResult
	errMsg    string
}

// label names the job's telemetry run.
func (j *Job) label() string { return fmt.Sprintf("%s/j%d", j.Tenant, j.ID) }

// SpanTree returns the job's span tree (nil only for jobs constructed
// outside Submit, e.g. directly in tests).
func (j *Job) SpanTree() *obs.Tree { return j.tree }

// endQueueWait closes the queue.wait span, if the job has one. Idempotent
// (End keeps the first close).
func (j *Job) endQueueWait() { j.queueSpan.End() }

// setRunSpan publishes the run child span for completion to annotate.
func (j *Job) setRunSpan(sp *obs.Span) {
	j.mu.Lock()
	j.runSpan = sp
	j.mu.Unlock()
}

// Done returns a channel closed once the job's terminal transition is
// fully recorded: its state and result, its closed run and root spans,
// its flight-recorder tree and its SLO observations. A caller woken by
// Done reads all of them finished.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result (nil until terminal; nil for jobs
// canceled before they started).
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// cancelQueued atomically transitions queued → canceled; false means the
// job already started (or finished) and cancellation must flow through
// its context instead. The caller that gets true records the rest of the
// transition and then closes Done.
func (j *Job) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCanceled
	j.errMsg = "canceled while queued"
	j.finished = time.Now()
	return true
}

// begin transitions queued → running; false means the job was canceled
// first and must not run.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records the terminal state; idempotent (the first caller wins,
// records the rest of the transition and then closes Done).
func (j *Job) finish(state State, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	return true
}

// closeDone wakes Done's waiters; the caller that won the terminal
// transition calls it once, last.
func (j *Job) closeDone() { close(j.done) }

// JobView is the JSON shape of one job on the HTTP surface.
type JobView struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant"`
	State    State  `json:"state"`
	Path     string `json:"path"`
	Model    string `json:"model"`
	Cost     int64  `json:"cost"`
	Cycle    int64  `json:"cycle"`
	Arrivals int64  `json:"arrivals"`
	// ElapsedSec is wall time since submission, frozen at the terminal
	// transition.
	ElapsedSec float64    `json:"elapsed_sec"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

// View snapshots the job; withResult includes the (possibly large) output
// payload.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:     j.ID,
		Tenant: j.Tenant,
		State:  j.state,
		Path:   j.Path,
		Model:  j.Model,
		Cost:   j.Cost,
		Error:  j.errMsg,
	}
	if j.prog != nil {
		v.Cycle = j.prog.Cycle.Load()
		v.Arrivals = j.prog.Arrivals.Load()
	}
	end := time.Now()
	if j.state.Terminal() {
		end = j.finished
	}
	v.ElapsedSec = end.Sub(j.submitted).Seconds()
	if withResult && j.state.Terminal() {
		v.Result = j.result
	}
	return v
}
