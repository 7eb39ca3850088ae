// Compiled-artifact half of the core API: an Artifact is the immutable
// product of one compilation — shareable across goroutines and cacheable by
// content hash — while a Binding carries the cheap per-run attachments
// (context, progress counters, tracer, lane width). Splitting the two is
// what makes a content-addressed compile cache sound: a cache hit hands out
// the same Artifact to N concurrent jobs, and nothing on the run path
// writes it.
package core

import (
	"context"
	"fmt"
	"time"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/obs"
	"staticpipe/internal/passes"
	"staticpipe/internal/pe"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/trace"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// Artifact is an immutable compiled pipe-structured program: parsed,
// checked, compiled through the pass pipeline, and lowered once into the
// instruction table (graph.Lower) that both simulators, placement and the
// rate analysis read.
// After CompileArtifact returns, nothing mutates an Artifact — concurrent
// Run/RunBatch calls with different Bindings and inputs are safe, which is
// the contract the artifact cache depends on.
type Artifact struct {
	Source   string
	Checked  *val.Checked
	Compiled *pipestruct.Result
	// Cells and Arcs are the compiled graph's static shape, captured once
	// so admission-time cost estimation on a cache hit touches no graph.
	Cells int
	Arcs  int
	// CompileWall is the wall-clock cost of producing this artifact
	// (parse + check + passes + lowering); the cache credits it to its
	// compile-seconds-saved counter on every hit.
	CompileWall time.Duration

	// batch is the compile-time Options.Batch, the lane width a Binding
	// with Batch 0 falls back to.
	batch int
	// tab is the compiled graph's lowered form; prepared and mach run it.
	tab      *graph.Table
	prepared *exec.Prepared
	mach     *machine.Prepared
}

// Binding is the per-run attachment set for an Artifact run: everything
// that varies job to job while the compiled program stays fixed. The zero
// Binding runs untraced and uncancelable under the default cycle bound, at
// the compile-time Options.Batch width (scalar unless that is set).
type Binding struct {
	// Ctx cancels the run early (see exec.Options.Ctx); it also carries the
	// obs.Span the run annotates.
	Ctx context.Context
	// Progress receives live cycle/arrival counters (see
	// exec.Options.Progress).
	Progress *trace.Progress
	// Tracer receives the run's observability event stream.
	Tracer trace.Tracer
	// Workers shards this run's lanes when it is batched (see
	// exec.Options.Workers).
	Workers int
	// MaxCycles bounds this run (0 = exec.DefaultMaxCycles).
	MaxCycles int
	// Batch widens this run to B lanes; 0 falls back to the compile-time
	// Options.Batch. RunBatch with neither runs one lane per lane-input
	// set.
	Batch int
}

// CompileArtifact parses, checks, and compiles a pipe-structured Val
// program into an immutable, concurrency-safe artifact.
func CompileArtifact(src string, opts Options) (*Artifact, error) {
	start := time.Now()
	prog, err := val.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := val.Check(prog)
	if err != nil {
		return nil, err
	}
	pl, err := passes.Parse(opts.Passes)
	if err != nil {
		return nil, err
	}
	popts := pipestruct.Options{
		ForallScheme:  opts.ForallScheme,
		ForIterScheme: opts.ForIterScheme,
		PE:            pe.Options{LiteralControl: opts.LiteralControl},
		Passes:        pl,
		VerifyEach:    opts.VerifyEach,
		Snapshot:      opts.Snapshot,
	}
	compiled, err := pipestruct.Compile(checked, popts)
	if err != nil {
		return nil, err
	}
	tab, err := graph.Lower(compiled.Graph)
	if err != nil {
		return nil, fmt.Errorf("core: compiled graph rejected by simulator: %w", err)
	}
	stats := compiled.Graph.ComputeStats()
	return &Artifact{
		Source:      src,
		Checked:     checked,
		Compiled:    compiled,
		Cells:       stats.Cells,
		Arcs:        stats.Arcs,
		CompileWall: time.Since(start),
		batch:       opts.Batch,
		tab:         tab,
		prepared:    exec.PrepareTable(tab),
		mach:        machine.PrepareTable(tab),
	}, nil
}

// PassStats returns the per-pass compilation statistics in pipeline order.
func (a *Artifact) PassStats() []passes.Stat { return a.Compiled.PassStats }

// Machine returns the packet-level simulator's prepared form of the
// compiled graph. It runs the artifact's one table and is shared by every
// caller; the error is always nil.
func (a *Artifact) Machine() (*machine.Prepared, error) { return a.mach, nil }

// width resolves one run's lane width: the binding's, else the
// compile-time Options.Batch.
func (a *Artifact) width(b Binding) int {
	if b.Batch > 0 {
		return b.Batch
	}
	return a.batch
}

// setGraphAttrs stamps the compiled graph's static shape onto the span
// carried by ctx, if any.
func (a *Artifact) setGraphAttrs(ctx context.Context) {
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.Set("cells", int64(a.Cells))
		sp.Set("arcs", int64(a.Arcs))
	}
}

// Run simulates the compiled graph with the given per-run binding and input
// streams. It never writes the graph: inputs travel via
// exec.Options.Inputs, so any number of goroutines may Run one Artifact
// concurrently.
func (a *Artifact) Run(b Binding, inputs map[string][]value.Value) (*RunResult, error) {
	binds, err := a.Compiled.BindInputs(inputs)
	if err != nil {
		return nil, err
	}
	a.setGraphAttrs(b.Ctx)
	res, err := a.prepared.Run(exec.Options{
		MaxCycles: b.MaxCycles, Tracer: b.Tracer, Progress: b.Progress,
		Workers: b.Workers, Ctx: b.Ctx, Batch: a.width(b), Inputs: binds,
	})
	if err != nil {
		if res != nil {
			// MaxCycles exhaustion or cancellation: return the partial
			// RunResult — each output's elements produced so far — so a
			// canceled run still hands its caller the work already done,
			// with the stall diagnostics in the wrapped error text.
			partial := &RunResult{Outputs: map[string]*val.ArrayVal{}, Exec: res}
			for name, rng := range a.Compiled.Outputs {
				partial.Outputs[name] = &val.ArrayVal{Lo: rng.Lo, Elems: res.Output(name), Lo2: rng.Lo2, W: rng.Width()}
			}
			return partial, fmt.Errorf("%w\n%s", err, exec.Describe(res))
		}
		return nil, err
	}
	out := &RunResult{Outputs: map[string]*val.ArrayVal{}, Exec: res}
	for name, rng := range a.Compiled.Outputs {
		elems := res.Output(name)
		if len(elems) != rng.Len() {
			return nil, fmt.Errorf("core: output %s produced %d of %d elements (pipeline stalled?)\n%s",
				name, len(elems), rng.Len(), exec.Describe(res))
		}
		out.Outputs[name] = &val.ArrayVal{Lo: rng.Lo, Elems: elems, Lo2: rng.Lo2, W: rng.Width()}
	}
	return out, nil
}

// RunBatch simulates B independent input sets through the compiled graph
// in a single batched run. inputs binds the baseline streams every lane
// defaults to (and lane 0 always consumes); laneInputs[l], when non-nil,
// rebinds lane l's named inputs (lane 0's entry is ignored). Every stream
// must pass the compiled program's CheckInput. B is the binding's
// Batch, else the compile-time Options.Batch, else len(laneInputs). Like
// Run it is safe for concurrent use on one shared Artifact.
func (a *Artifact) RunBatch(bd Binding, inputs map[string][]value.Value, laneInputs []map[string][]value.Value) (*BatchRunResult, error) {
	b := a.width(bd)
	if b < 2 {
		b = len(laneInputs)
	}
	if b < 2 {
		return nil, fmt.Errorf("core: RunBatch requires a batch width > 1, have %d", b)
	}
	for l, li := range laneInputs {
		for name, vals := range li {
			if err := a.Compiled.CheckInput(name, vals); err != nil {
				return nil, fmt.Errorf("core: lane %d %w", l, err)
			}
		}
	}
	binds, err := a.Compiled.BindInputs(inputs)
	if err != nil {
		return nil, err
	}
	a.setGraphAttrs(bd.Ctx)
	res, err := a.prepared.Run(exec.Options{
		MaxCycles: bd.MaxCycles, Tracer: bd.Tracer, Progress: bd.Progress,
		Workers: bd.Workers, Ctx: bd.Ctx, Batch: b, LaneInputs: laneInputs, Inputs: binds,
	})
	if err != nil && res == nil {
		return nil, err
	}
	out := &BatchRunResult{Exec: res, Lanes: make([]*RunResult, b)}
	for l := 0; l < b; l++ {
		lexec := res.Lane(l)
		rr := &RunResult{Outputs: map[string]*val.ArrayVal{}, Exec: lexec}
		for name, rng := range a.Compiled.Outputs {
			elems := lexec.Output(name)
			if err == nil && len(elems) != rng.Len() {
				return nil, fmt.Errorf("core: lane %d output %s produced %d of %d elements (pipeline stalled?)\n%s",
					l, name, len(elems), rng.Len(), exec.Describe(lexec))
			}
			rr.Outputs[name] = &val.ArrayVal{Lo: rng.Lo, Elems: elems, Lo2: rng.Lo2, W: rng.Width()}
		}
		out.Lanes[l] = rr
	}
	if err != nil {
		// MaxCycles exhaustion or cancellation: hand back every lane's
		// partial view alongside the wrapped error.
		return out, fmt.Errorf("%w\n%s", err, exec.Describe(res))
	}
	return out, nil
}
