// Package serve is the multi-tenant simulation-as-a-service layer: a job
// model, an admission controller with a fast-path/offload split, a bounded
// worker pool driving the simulators, per-tenant quotas,
// and a bounded result store. cmd/dfserve mounts it over HTTP next to the
// telemetry surface.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/obs"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/value"
)

// Simulator models a job can request.
const (
	ModelExec    = "exec"    // firing-rule simulator (internal/exec)
	ModelMachine = "machine" // packet-level machine simulator (internal/machine)
)

// Admission paths.
const (
	PathFast    = "fast"    // ran inline on the submit call
	PathOffload = "offload" // queued to the worker pool
)

// Config sizes the service. The zero value of each field picks the listed
// default.
type Config struct {
	// PoolWorkers is the worker-pool size for offloaded jobs (default
	// GOMAXPROCS).
	PoolWorkers int
	// QueueDepth bounds the offload queue; a full queue rejects with 429
	// (default 256).
	QueueDepth int
	// OffloadThreshold splits admission: jobs whose estimated cost
	// (cells × estimated cycles) is at or below it run inline on the
	// submitting goroutine, larger ones queue (default 1<<20). Zero keeps
	// the default; negative offloads everything.
	OffloadThreshold int64
	// SimWorkers shards the lanes of offloaded batched exec jobs across
	// this many goroutines (core.Binding.Workers); scalar and machine jobs
	// run sequentially whatever it says. Results are byte-identical
	// either way.
	SimWorkers int
	// TenantRate is the per-tenant admission rate in jobs/second; zero or
	// negative disables throttling. TenantBurst is the token-bucket burst
	// (default 16).
	TenantRate  float64
	TenantBurst int
	// KeepFinished bounds the per-tenant result store: beyond this many
	// terminal jobs, the oldest are evicted (default 64; negative keeps
	// none).
	KeepFinished int
	// MaxCycles caps every job's simulation bound (default
	// exec.DefaultMaxCycles). Specs asking for more are clamped.
	MaxCycles int
	// JobTimeout bounds each job's execution wall time; 0 means no bound.
	JobTimeout time.Duration
	// Registry, when non-nil, registers one telemetry run per executing
	// job (label "tenant/j<id>") so /metrics and /runs expose live
	// per-job cycle progress.
	Registry *telemetry.Registry
	// StreamInterval paces SSE progress events (default 100ms).
	StreamInterval time.Duration
	// Flight, when non-nil, is the always-on flight recorder: it retains
	// every job's span tree, every admission decision, and stall
	// snapshots, all in bounded rings (see obs.NewFlight). Recording
	// happens only at admission and terminal transitions.
	Flight *obs.Flight
	// SLO, when non-nil, receives one good/bad observation per objective
	// per terminal job (see DefaultSLOs for the objective set).
	SLO *obs.SLOEngine
	// SLOQueueWaitMax classifies queue-wait observations: a job that
	// waited longer is a bad event for the queue_wait objective (default
	// 500ms).
	SLOQueueWaitMax time.Duration
	// SLOCostRatioMax classifies cost-model observations: a job whose
	// actual/estimated work ratio exceeds it is a bad event for the
	// cost_model objective (default 1.5 — underestimates are what break
	// admission control).
	SLOCostRatioMax float64
	// Cache, when non-nil, is the content-addressed compile cache: repeat
	// submissions of one (source, options) content share its compiled
	// artifact, concurrent first submissions coalesce onto one compile, and
	// /metrics grows the staticpipe_cache_* families. Nil compiles every
	// submission from scratch.
	Cache *artifact.Cache
}

func (c Config) withDefaults() Config {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.OffloadThreshold == 0 {
		c.OffloadThreshold = 1 << 20
	}
	if c.TenantRate < 0 {
		c.TenantRate = 0 // negative rate means "disabled", same as zero
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 16
	}
	if c.KeepFinished == 0 {
		c.KeepFinished = telemetry.DefaultKeepFinished
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = exec.DefaultMaxCycles
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 100 * time.Millisecond
	}
	if c.SLOQueueWaitMax <= 0 {
		c.SLOQueueWaitMax = 500 * time.Millisecond
	}
	if c.SLOCostRatioMax <= 0 {
		c.SLOCostRatioMax = 1.5
	}
	return c
}

// SLO objective names the service observes.
const (
	SLOQueueWait = "queue_wait" // admitted job began within SLOQueueWaitMax
	SLOJobErrors = "job_errors" // terminal job did not fail (canceled counts good)
	SLOCostModel = "cost_model" // actual/estimated work ratio within SLOCostRatioMax
	SLOStallFree = "stall_free" // finished run drained cleanly
)

// DefaultSLOs builds the service's standard objective set. dfserve and
// the tests share it so the greppable verdict line means the same thing
// everywhere.
func DefaultSLOs() *obs.SLOEngine {
	return obs.NewSLOEngine(
		obs.SLODef{Name: SLOQueueWait, Target: 0.99,
			Help: "99% of admitted jobs start within the configured queue-wait bound."},
		obs.SLODef{Name: SLOJobErrors, Target: 0.99,
			Help: "99% of terminal jobs do not fail (cancellation is not a failure)."},
		obs.SLODef{Name: SLOCostModel, Target: 0.90,
			Help: "90% of runs land within the admission cost model's tolerated ratio."},
		obs.SLODef{Name: SLOStallFree, Target: 0.95,
			Help: "95% of finished runs drain cleanly with no stranded tokens."},
	)
}

// Service is one admission controller + worker pool + result store.
type Service struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[int64]*Job
	buckets  map[string]*bucket
	finished map[string][]int64 // per-tenant FIFO of terminal job IDs, oldest first

	// Counters for /metrics; label keys are [tenant] or [tenant, x].
	submitted map[string]int64
	admitted  map[[2]string]int64 // [tenant, path]
	rejected  map[[2]string]int64 // [tenant, reason]
	completed map[[2]string]int64 // [tenant, state]
	evicted   map[string]int64
	running   int
	poolBusy  int
	// costRatio scores the admission cost model: actual simulation work
	// (cells × simulated cycles, with a batch's amortized lane discount)
	// over the admission-time estimate, one observation per job that ran.
	costRatio ratioHist
}

// ratioBounds are the staticpipe_serve_cost_ratio histogram's upper
// bucket bounds. 1.0 separates overestimates (the safe side for an
// admission bound) from underestimates.
var ratioBounds = [...]float64{0.1, 0.25, 0.5, 1, 2, 4}

// ratioHist is one fixed-bucket histogram; guarded by Service.mu.
type ratioHist struct {
	counts [len(ratioBounds) + 1]int64 // +1 for the +Inf bucket
	sum    float64
	count  int64
}

func (h *ratioHist) observe(v float64) {
	i := 0
	for ; i < len(ratioBounds) && v > ratioBounds[i]; i++ {
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// New starts a service: PoolWorkers goroutines consuming the offload
// queue. Call Close to drain and stop them.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      map[int64]*Job{},
		buckets:   map[string]*bucket{},
		finished:  map[string][]int64{},
		submitted: map[string]int64{},
		admitted:  map[[2]string]int64{},
		rejected:  map[[2]string]int64{},
		completed: map[[2]string]int64{},
		evicted:   map[string]int64{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.PoolWorkers)
	for i := 0; i < cfg.PoolWorkers; i++ {
		go s.worker()
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// newJob allocates a job with its cancellation scope rooted in the
// service (Close's hard phase cancels every in-flight run).
func (s *Service) newJob(spec Spec, art *core.Artifact, cost, cells int64) *Job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		Tenant:   spec.Tenant,
		Cost:     cost,
		Model:    spec.Model,
		spec:     spec,
		art:      art,
		workers:  spec.Workers,
		maxCyc:   spec.MaxCycles,
		cells:    cells,
		ctx:      ctx,
		cancelFn: cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	j.submitted = time.Now()
	return j
}

// admit registers an admitted job (ID assignment + tracking + counters).
func (s *Service) admit(j *Job) {
	s.mu.Lock()
	s.admitLocked(j)
	s.mu.Unlock()
}

func (s *Service) admitLocked(j *Job) {
	s.nextID++
	j.ID = s.nextID
	s.jobs[j.ID] = j
	s.admitted[[2]string{j.Tenant, j.Path}]++
	j.tree.Root().SetName(j.label())
	s.cfg.Flight.RecordAdmission(obs.AdmissionRecord{
		Time: time.Now(), Tenant: j.Tenant, JobID: j.ID, Decision: j.Path, Cost: j.Cost,
	})
}

// rejectLocked counts one rejection. Callers hold s.mu.
func (s *Service) rejectLocked(tenant, reason string) {
	s.rejected[[2]string{tenant, reason}]++
	s.cfg.Flight.RecordAdmission(obs.AdmissionRecord{
		Time: time.Now(), Tenant: tenant, Decision: "rejected:" + reason,
	})
}

// worker is one pool goroutine: it drains the offload queue until Close
// closes it, then exits. Jobs canceled while queued are skipped (their
// terminal state was recorded by Cancel).
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.poolBusy++
		s.mu.Unlock()
		s.execute(j)
		s.mu.Lock()
		s.poolBusy--
		s.mu.Unlock()
	}
}

// execute runs one admitted job to a terminal state. It is called on a
// pool worker (offload path) or the submitting goroutine (fast path).
func (s *Service) execute(j *Job) {
	if !j.begin() {
		return // canceled while queued
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	var run *telemetry.Run
	if s.cfg.Registry != nil {
		run = s.cfg.Registry.NewRun(j.label(), j.Model)
		j.mu.Lock()
		j.run = run
		j.prog = run.Progress()
		j.mu.Unlock()
	}

	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}

	// The run span rides the same context that carries cancellation into
	// the simulator hot loops; the cores annotate it (cycles, lane
	// children) strictly after their cycle loop ends.
	j.endQueueWait()
	if root := j.tree.Root(); root != nil {
		sp := root.Child(obs.KindRun, j.Model)
		j.setRunSpan(sp)
		ctx = obs.WithSpan(ctx, sp)
	}

	res, err := s.simulate(j, ctx)
	state := StateDone
	errMsg := ""
	switch {
	case res != nil && res.Canceled:
		state = StateCanceled
		errMsg = fmt.Sprintf("canceled: %v", context.Cause(ctx))
	case err != nil:
		state = StateFailed
		errMsg = err.Error()
	}
	s.complete(j, state, res, errMsg, err)
}

// simulate drives the job's chosen simulator model and normalizes the
// outcome to a JobResult. A non-nil result with err != nil is partial
// (cancellation or a cycle-bound halt).
func (s *Service) simulate(j *Job, ctx context.Context) (*JobResult, error) {
	inputs := streamInputs(j.spec.Inputs)
	laneIn := laneStreamInputs(j.spec.LaneInputs)
	var prog = j.prog
	switch j.Model {
	case ModelMachine:
		// The machine preparation is memoized on the shared artifact, so a
		// cache-hit machine job skips validation and FIFO expansion too.
		mp, err := j.art.Machine()
		if err != nil {
			return nil, err
		}
		mres, err := mp.Run(machine.Config{
			MaxCycles: j.maxCyc, Progress: prog, Ctx: ctx,
			Batch: j.spec.Batch, LaneInputs: laneIn, Inputs: inputs,
		})
		if mres == nil {
			return nil, err
		}
		res := &JobResult{
			Cycles: mres.Cycles, Clean: mres.Clean, Canceled: mres.Canceled,
			Stalled: mres.Stalled, Outputs: map[string]Output{}, II: map[string]float64{},
		}
		for name, rng := range j.art.Compiled.Outputs {
			res.Outputs[name] = Output{Lo: rng.Lo, Lo2: rng.Lo2, W: rng.Width(), Values: mres.Output(name)}
			res.II[name] = mres.II(name)
		}
		if mres.Batch > 1 {
			res.Batch = mres.Batch
			for l := range mres.Lanes {
				lr := &mres.Lanes[l]
				lv := LaneView{Cycles: lr.Cycles, Clean: lr.Clean, Canceled: lr.Canceled,
					Outputs: map[string]Output{}}
				for name, rng := range j.art.Compiled.Outputs {
					lv.Outputs[name] = Output{Lo: rng.Lo, Lo2: rng.Lo2, W: rng.Width(), Values: lr.Output(name)}
				}
				res.Lanes = append(res.Lanes, lv)
			}
		}
		return res, err
	default: // ModelExec
		// The per-run attachments travel in a Binding; the shared artifact
		// is never written, so concurrent jobs on one cached artifact are
		// race-free by construction.
		bind := core.Binding{Ctx: ctx, Progress: prog, Workers: j.workers, MaxCycles: j.maxCyc, Batch: j.spec.Batch}
		if j.spec.Batch > 1 {
			br, err := j.art.RunBatch(bind, inputs, laneIn)
			if br == nil {
				return nil, err
			}
			// Top-level fields are lane 0's view, matching the scalar
			// result a client would get from the same spec without Batch.
			l0 := br.Lanes[0]
			res := &JobResult{
				Batch:  br.Exec.Batch,
				Cycles: l0.Exec.Cycles, Clean: l0.Exec.Clean, Canceled: br.Exec.Canceled,
				Stalled: l0.Exec.Stalled, Outputs: map[string]Output{}, II: map[string]float64{},
			}
			for name, av := range l0.Outputs {
				res.Outputs[name] = Output{Lo: av.Lo, Lo2: av.Lo2, W: av.W, Values: av.Elems}
				res.II[name] = l0.Exec.II(name)
			}
			for _, rr := range br.Lanes {
				lv := LaneView{Cycles: rr.Exec.Cycles, Clean: rr.Exec.Clean,
					Canceled: rr.Exec.Canceled, Outputs: map[string]Output{}}
				for name, av := range rr.Outputs {
					lv.Outputs[name] = Output{Lo: av.Lo, Lo2: av.Lo2, W: av.W, Values: av.Elems}
				}
				res.Lanes = append(res.Lanes, lv)
			}
			return res, err
		}
		rr, err := j.art.Run(bind, inputs)
		if rr == nil {
			return nil, err
		}
		res := &JobResult{
			Cycles: rr.Exec.Cycles, Clean: rr.Exec.Clean, Canceled: rr.Exec.Canceled,
			Stalled: rr.Exec.Stalled, Outputs: map[string]Output{}, II: map[string]float64{},
		}
		for name, av := range rr.Outputs {
			res.Outputs[name] = Output{Lo: av.Lo, Lo2: av.Lo2, W: av.W, Values: av.Elems}
			res.II[name] = rr.Exec.II(name)
		}
		return res, err
	}
}

// laneStreamInputs converts the wire-format per-lane overrides to the
// simulator cores' value-slice form. Nil in, nil out.
func laneStreamInputs(in []map[string]Stream) []map[string][]value.Value {
	if len(in) == 0 {
		return nil
	}
	out := make([]map[string][]value.Value, len(in))
	for l, m := range in {
		if m == nil {
			continue
		}
		out[l] = streamInputs(m)
	}
	return out
}

// complete records a job's terminal transition exactly once: lifecycle
// state, counters, telemetry run closure, result-store eviction, span
// closure, flight recording, and SLO observations. Done closes last, so
// its waiters see every one of them.
func (s *Service) complete(j *Job, state State, res *JobResult, errMsg string, err error) {
	if !j.finish(state, res, errMsg) {
		return
	}
	defer j.closeDone()
	j.cancelFn() // release the job's context resources
	j.mu.Lock()
	run := j.run
	runSpan := j.runSpan
	began := !j.started.IsZero()
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	if run != nil {
		run.Finish(err)
	}
	// Score the admission estimate against the work the job actually did,
	// in the bill's units: cells × simulated cycles, and for a B-lane batch
	// cells × mean lane cycles × (B+3)/4, the amortized discount
	// estimateCost applies — so one program reads the same ratio at any
	// width.
	ratio := -1.0
	var actual int64
	if began && res != nil && j.Cost > 0 {
		actual = j.cells * int64(res.Cycles)
		if b := int64(len(res.Lanes)); b > 0 {
			var total int64
			for _, lv := range res.Lanes {
				total += int64(lv.Cycles)
			}
			actual = j.cells * total * (b + 3) / (4 * b)
		}
		ratio = float64(actual) / float64(j.Cost)
	}
	s.mu.Lock()
	if began {
		s.running--
	}
	if ratio >= 0 {
		s.costRatio.observe(ratio)
	}
	s.completed[[2]string{j.Tenant, string(state)}]++
	s.retireLocked(j)
	s.mu.Unlock()

	// Observability, strictly after the terminal transition is published.
	if ratio >= 0 {
		runSpan.Set("cost_est", j.Cost)
		runSpan.Set("cost_actual", actual)
		runSpan.Set("cost_ratio", ratio)
	}
	runSpan.End()
	if root := j.tree.Root(); root != nil {
		root.Set("state", string(state))
		if errMsg != "" {
			root.Set("error", errMsg)
		}
		root.End()
		s.cfg.Flight.RecordTree(j.tree)
	}
	if res != nil && !res.Clean && !res.Canceled && len(res.Stalled) > 0 {
		s.cfg.Flight.RecordStall(obs.StallSnapshot{
			Time: time.Now(), Job: j.label(), Cycle: int64(res.Cycles), Diags: res.Stalled,
		})
	}
	if slo := s.cfg.SLO; slo != nil {
		if began {
			slo.Observe(SLOQueueWait, wait <= s.cfg.SLOQueueWaitMax)
		}
		slo.Observe(SLOJobErrors, state != StateFailed)
		if ratio >= 0 {
			slo.Observe(SLOCostModel, ratio <= s.cfg.SLOCostRatioMax)
		}
		if state == StateDone && res != nil {
			slo.Observe(SLOStallFree, res.Clean)
		}
	}
}

// retireLocked appends j to its tenant's finished FIFO and evicts beyond
// the retention bound. Callers hold s.mu.
func (s *Service) retireLocked(j *Job) {
	keep := s.cfg.KeepFinished
	if keep < 0 {
		keep = 0
	}
	fin := append(s.finished[j.Tenant], j.ID)
	for len(fin) > keep {
		delete(s.jobs, fin[0])
		s.evicted[j.Tenant]++
		fin = fin[1:]
	}
	s.finished[j.Tenant] = fin
}

// HealthStats snapshots the service's live registry counts for the
// /healthz surface: tracked jobs by lifecycle phase plus pool occupancy.
func (s *Service) HealthStats() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := map[string]int64{
		"jobs_tracked": int64(len(s.jobs)),
		"jobs_running": int64(s.running),
		"jobs_queued":  int64(len(s.queue)),
		"pool_busy":    int64(s.poolBusy),
	}
	var finished int64
	for _, ids := range s.finished {
		finished += int64(len(ids))
	}
	stats["jobs_finished"] = finished
	return stats
}

// Get returns a tracked job (nil if unknown or evicted).
func (s *Service) Get(id int64) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// List snapshots all tracked jobs (optionally one tenant's), ordered by ID.
func (s *Service) List(tenant string) []JobView {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.Tenant == tenant {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View(false)
	}
	return views
}

// Cancel requests cancellation of a tracked job. A queued job transitions
// to canceled immediately; a running one is interrupted through its
// context (the simulator polls every exec.CancelCadence cycles and
// returns the partial result). Returns the job and whether it was found;
// canceling a terminal job is a found no-op.
func (s *Service) Cancel(id int64) (*Job, bool) {
	j := s.Get(id)
	if j == nil {
		return nil, false
	}
	j.cancelFn()
	if j.cancelQueued() {
		// Never started: record the terminal transition here (the worker
		// that eventually dequeues it will skip it), Done last.
		defer j.closeDone()
		j.mu.Lock()
		run := j.run
		j.mu.Unlock()
		if run != nil {
			run.Finish(context.Canceled)
		}
		s.mu.Lock()
		s.completed[[2]string{j.Tenant, string(StateCanceled)}]++
		s.retireLocked(j)
		s.mu.Unlock()
		j.endQueueWait()
		if root := j.tree.Root(); root != nil {
			root.Set("state", string(StateCanceled))
			root.End()
			s.cfg.Flight.RecordTree(j.tree)
		}
		// Canceled-while-queued is not a failure; the job never ran, so
		// the other objectives have nothing to say about it.
		s.cfg.SLO.Observe(SLOJobErrors, true)
	}
	return j, true
}

// Close drains the service: no new submissions are admitted, queued jobs
// run to completion, and the call returns when the pool is idle. If ctx
// expires first, every in-flight job is canceled (partial results are
// recorded) and Close waits for the pool to unwind — bounded by the
// simulator's cancel cadence — before returning ctx's error.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard phase: cancel everything still running
		<-done
		return ctx.Err()
	}
}
