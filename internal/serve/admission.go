package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/obs"
	"staticpipe/internal/value"
)

// Rejection reasons, used both as HTTP error codes and as the reason label
// of staticpipe_serve_rejected_total.
const (
	ReasonInvalid   = "invalid"    // bad spec: parse/check/compile or input binding failed
	ReasonThrottled = "throttled"  // tenant token bucket empty
	ReasonQueueFull = "queue_full" // offload queue at capacity
	ReasonShutdown  = "shutdown"   // service draining
)

// Rejection describes why a submission was not admitted.
type Rejection struct {
	Reason string
	// Status is the HTTP status the reason maps to (400, 429, 503).
	Status int
	// RetryAfter, when positive, is the client back-off hint in seconds
	// (only set for throttled/queue_full).
	RetryAfter int
	Err        error
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("serve: rejected (%s): %v", r.Reason, r.Err)
}

// bucket is one tenant's token bucket. Submissions spend one token each;
// tokens refill at rate per second up to burst. Guarded by Service.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxRetryAfter caps the Retry-After hint at one hour: a zero, negative, or
// vanishingly small refill rate would otherwise push the division below to
// +Inf, and converting that to int yields a garbage header value.
const maxRetryAfter = 3600

// take refills the bucket to now and spends one token. On failure it
// returns the whole seconds to wait until a token is available, capped at
// maxRetryAfter.
func (b *bucket) take(now time.Time, rate float64, burst int) (ok bool, retryAfter int) {
	if rate > 0 {
		b.tokens = math.Min(float64(burst), b.tokens+now.Sub(b.last).Seconds()*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rate <= 0 {
		return false, maxRetryAfter
	}
	wait := math.Ceil((1 - b.tokens) / rate)
	if wait > maxRetryAfter {
		wait = maxRetryAfter
	}
	return false, int(wait)
}

// estimateCost scores a compiled job for the fast/offload split. The cost
// model is the admission-time upper bound on simulation work: every cell
// fires at most once per cycle, so cells × estimated cycles bounds the
// firing count. Estimated cycles follow from the fully-pipelined shape of
// compiled graphs — a stream of n values through a d-cell pipeline drains
// in O(n + d) — doubled for II > 1 slack, capped by the cycle bound.
//
// A batched job advances B lanes through one shared planning pass, so it
// does not cost B scalar runs: the measured amortization (dfbench E20 on
// both array kernels) puts a marginal lane at roughly a quarter of a
// scalar run, and admission bills 1 + (B-1)/4 scalar costs.
func estimateCost(art *core.Artifact, spec Spec) (cost, cells int64) {
	cells = int64(art.Cells)
	maxLen := 0
	for _, s := range spec.Inputs {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	// Per-lane rebinds count too: the drain time is governed by the longest
	// stream any lane pushes through the pipeline, so a batch whose base
	// inputs are short must not be billed as a short job when its lane
	// overrides are long.
	for _, li := range spec.LaneInputs {
		for _, s := range li {
			if len(s) > maxLen {
				maxLen = len(s)
			}
		}
	}
	estCycles := 2*int64(maxLen) + 2*cells + 16
	if spec.MaxCycles > 0 && estCycles > int64(spec.MaxCycles) {
		estCycles = int64(spec.MaxCycles)
	}
	cost = cells * estCycles
	if b := int64(spec.Batch); b > 1 {
		cost = cost * (b + 3) / 4
	}
	return cost, cells
}

// streamInputs converts wire-format streams to simulator input bindings.
func streamInputs(in map[string]Stream) map[string][]value.Value {
	out := make(map[string][]value.Value, len(in))
	for name, s := range in {
		out[name] = s
	}
	return out
}

// resolveSpec validates and normalizes a submission in place. It returns
// the compiled artifact (shared by the fast path, the offload queue, and —
// through the artifact cache — every other submission of the same content)
// or a client-error rejection. adm, when non-nil, is the open admission
// span; a cache-enabled resolve hangs its cache.lookup child off it.
func (s *Service) resolveSpec(spec *Spec, adm *obs.Span) (*core.Artifact, *Rejection) {
	switch spec.Model {
	case "":
		spec.Model = ModelExec
	case ModelExec, ModelMachine:
	default:
		return nil, &Rejection{
			Reason: ReasonInvalid, Status: http.StatusBadRequest,
			Err: fmt.Errorf("unknown model %q (want %q or %q)", spec.Model, ModelExec, ModelMachine),
		}
	}
	if spec.MaxCycles <= 0 || spec.MaxCycles > s.cfg.MaxCycles {
		spec.MaxCycles = s.cfg.MaxCycles
	}
	if spec.Workers < 0 {
		spec.Workers = 0
	}
	if spec.Batch < 0 {
		spec.Batch = 0
	}
	if spec.Batch > exec.MaxBatch {
		return nil, &Rejection{
			Reason: ReasonInvalid, Status: http.StatusBadRequest,
			Err: fmt.Errorf("batch %d exceeds the %d-lane limit", spec.Batch, exec.MaxBatch),
		}
	}
	if len(spec.LaneInputs) > 0 && spec.Batch <= 1 {
		return nil, &Rejection{
			Reason: ReasonInvalid, Status: http.StatusBadRequest,
			Err: fmt.Errorf("lane_inputs requires batch > 1"),
		}
	}
	if len(spec.LaneInputs) > spec.Batch {
		return nil, &Rejection{
			Reason: ReasonInvalid, Status: http.StatusBadRequest,
			Err: fmt.Errorf("%d lane input sets for %d lanes", len(spec.LaneInputs), spec.Batch),
		}
	}
	art, rej := s.compileSpec(spec.Source, adm)
	if rej != nil {
		return nil, rej
	}
	// Check inputs once at admission so name, length and element-kind
	// mistakes come back as a 400, not a failed job or a simulator panic.
	// The check never writes the shared graph; execution passes the
	// streams with the run.
	if err := art.Compiled.CheckInputs(streamInputs(spec.Inputs)); err != nil {
		return nil, &Rejection{Reason: ReasonInvalid, Status: http.StatusBadRequest, Err: err}
	}
	// Per-lane rebinds get the same admission-time checking: unknown names,
	// wrong lengths and wrong element kinds are a 400, not a failed job.
	for l, li := range spec.LaneInputs {
		for name, vals := range li {
			if err := art.Compiled.CheckInput(name, vals); err != nil {
				return nil, &Rejection{Reason: ReasonInvalid, Status: http.StatusBadRequest,
					Err: fmt.Errorf("lane %d %w", l, err)}
			}
		}
	}
	return art, nil
}

// compileSpec resolves source to an artifact, through the
// content-addressed cache when one is configured. A hit (or a coalesced
// wait on another submission's in-flight compile) skips parse, check, the
// pass pipeline, and simulator preparation entirely. MaxCycles and Batch
// bind per run, not per compile: they stay out of both the compile options
// and the cache key so cycle-bound and lane-width variants of one program
// share an artifact.
func (s *Service) compileSpec(src string, adm *obs.Span) (*core.Artifact, *Rejection) {
	var copts core.Options
	compile := func() (*core.Artifact, error) { return core.CompileArtifact(src, copts) }
	var (
		art *core.Artifact
		err error
	)
	if s.cfg.Cache != nil {
		key := artifact.KeyFor(src, copts, "", 0)
		var sp *obs.Span
		if adm != nil {
			sp = adm.Child(obs.KindCache, "")
		}
		var outcome artifact.Outcome
		art, outcome, err = s.cfg.Cache.Get(key, compile)
		if sp != nil {
			sp.Set("outcome", outcome.String())
			sp.Set("key", key.Hash()[:12])
			if err == nil && outcome != artifact.Miss {
				sp.Set("saved_us", art.CompileWall.Microseconds())
			}
			sp.End()
		}
	} else {
		art, err = compile()
	}
	if err != nil {
		return nil, &Rejection{Reason: ReasonInvalid, Status: http.StatusBadRequest, Err: err}
	}
	return art, nil
}

// Submit admits one job. The decision sequence is:
//
//  1. service draining           → 503 shutdown
//  2. tenant token bucket empty  → 429 throttled (+ Retry-After)
//  3. spec invalid               → 400 invalid
//  4. cost ≤ OffloadThreshold    → fast path: run inline, return terminal job
//  5. offload queue full         → 429 queue_full (+ Retry-After)
//  6. enqueue                    → queued job (poll or stream for results)
//
// The cheap gates run before compilation so a throttled tenant cannot burn
// service CPU on compile work. Every submission lands in exactly one
// counter bucket: submitted == admitted + rejected per tenant.
//
// reqCtx, when non-nil, ties a fast-path run to the caller (a dropped HTTP
// request cancels the inline simulation); it does not affect offloaded
// jobs, which outlive their submit request by design.
func (s *Service) Submit(reqCtx context.Context, spec Spec) (*Job, *Rejection) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	now := time.Now()

	s.mu.Lock()
	s.submitted[spec.Tenant]++
	if s.closed {
		rej := &Rejection{Reason: ReasonShutdown, Status: http.StatusServiceUnavailable,
			Err: fmt.Errorf("service is shutting down")}
		s.rejectLocked(spec.Tenant, rej.Reason)
		s.mu.Unlock()
		return nil, rej
	}
	if s.cfg.TenantRate > 0 {
		b := s.buckets[spec.Tenant]
		if b == nil {
			b = &bucket{tokens: float64(s.cfg.TenantBurst), last: now}
			s.buckets[spec.Tenant] = b
		}
		if ok, retry := b.take(now, s.cfg.TenantRate, s.cfg.TenantBurst); !ok {
			s.rejectLocked(spec.Tenant, ReasonThrottled)
			s.mu.Unlock()
			return nil, &Rejection{Reason: ReasonThrottled, Status: http.StatusTooManyRequests,
				RetryAfter: retry,
				Err:        fmt.Errorf("tenant %s over rate limit (%.3g jobs/sec)", spec.Tenant, s.cfg.TenantRate)}
		}
	}
	s.mu.Unlock()

	// The job's span tree opens before compilation so the admission span
	// covers compile + cost estimation; the root is renamed to the job
	// label once an ID is assigned.
	tree := obs.NewTree(obs.KindJob, spec.Tenant)
	adm := tree.Root().Child(obs.KindAdmission, "")

	// Compile outside the lock: admission stays responsive while a large
	// program is compiling (and a cache hit makes this near-free).
	art, rej := s.resolveSpec(&spec, adm)
	if rej != nil {
		s.mu.Lock()
		s.rejectLocked(spec.Tenant, rej.Reason)
		s.mu.Unlock()
		return nil, rej
	}

	cost, cells := estimateCost(art, spec)
	adm.Set("cost", cost)
	adm.Set("cells", cells)
	j := s.newJob(spec, art, cost, cells)
	j.tree = tree
	if j.Cost <= s.cfg.OffloadThreshold {
		// Fast path: the program is small enough that queue latency would
		// dominate — run synchronously on the caller's goroutine so the
		// submit response carries the finished result.
		j.Path = PathFast
		adm.Set("path", j.Path)
		adm.End()
		if reqCtx != nil {
			stop := context.AfterFunc(reqCtx, j.cancelFn)
			defer stop()
		}
		s.admit(j)
		s.execute(j)
		return j, nil
	}

	j.Path = PathOffload
	if j.workers == 0 {
		j.workers = s.cfg.SimWorkers
	}
	adm.Set("path", j.Path)
	adm.End()
	j.queueSpan = tree.Root().Child(obs.KindQueueWait, "")
	s.mu.Lock()
	if s.closed {
		rej := &Rejection{Reason: ReasonShutdown, Status: http.StatusServiceUnavailable,
			Err: fmt.Errorf("service is shutting down")}
		s.rejectLocked(spec.Tenant, rej.Reason)
		s.mu.Unlock()
		return nil, rej
	}
	select {
	case s.queue <- j:
		s.admitLocked(j)
		s.mu.Unlock()
		return j, nil
	default:
		s.rejectLocked(spec.Tenant, ReasonQueueFull)
		s.mu.Unlock()
		return nil, &Rejection{Reason: ReasonQueueFull, Status: http.StatusTooManyRequests,
			RetryAfter: 1,
			Err:        fmt.Errorf("offload queue full (%d jobs)", s.cfg.QueueDepth)}
	}
}
