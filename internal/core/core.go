// Package core assembles the paper's contribution end to end: it compiles
// a pipe-structured Val program into a fully pipelined static dataflow
// instruction graph (Theorems 1–4) and runs it on the firing-rule
// simulator, with the reference interpreter available for validation.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"staticpipe/internal/exec"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/passes"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/trace"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// Options selects compilation strategies. The zero value is the paper's
// recommended configuration: pipeline-scheme foralls, companion-scheme
// for-iters where a companion function exists, idealized control
// generators, optimal balancing.
type Options struct {
	// ForallScheme: forall.Pipeline (default) or forall.Parallel.
	ForallScheme forall.Scheme
	// ForIterScheme: foriter.Auto (default), foriter.Todd, or
	// foriter.Companion.
	ForIterScheme foriter.Scheme
	// LiteralControl realizes boolean control streams as literal
	// instruction subgraphs instead of idealized generator cells.
	LiteralControl bool
	// NoBalance skips balancing; NaiveBalance uses longest-path leveling
	// instead of the optimal min-cost-flow balancer.
	NoBalance    bool
	NaiveBalance bool
	// Dedup runs common-cell elimination before balancing.
	Dedup bool
	// ArmSlack pads data-dependent conditional arms with elasticity FIFOs
	// of this many stages (see pe.Options.ArmSlack).
	ArmSlack int
	// Passes, when non-empty, is an explicit comma-separated compilation
	// pass list (e.g. "dedup,balance"; see passes.Names for the registry)
	// run over the assembled instruction graph. It overrides the
	// NoBalance/NaiveBalance/Dedup strategy booleans above, which remain as
	// the legacy interface and translate to the equivalent pass list.
	Passes string
	// VerifyEach runs the IR verifier (graph.Verify and, once balanced, the
	// §3 equal-path-length check) after every compilation pass.
	VerifyEach bool
	// Snapshot, if non-nil, receives the instruction graph after every
	// compilation pass. The graph is live; hooks must render what they need
	// synchronously.
	Snapshot func(pass string, g *graph.Graph)
	// MaxCycles bounds simulation runs (0 = exec.DefaultMaxCycles).
	MaxCycles int
	// Tracer, if non-nil, receives the observability event stream of every
	// Run (see internal/trace). Tracing is passive and does not change
	// results or cycle counts.
	Tracer trace.Tracer
	// Progress, if non-nil, is updated live during every Run (see
	// exec.Options.Progress) so the telemetry server can report cycle
	// progress while the simulation is in flight.
	Progress *trace.Progress
	// Workers shards a batched Run's lanes across this many goroutines
	// (see exec.Options.Workers); a scalar Run is sequential whatever it
	// says. Results are byte-identical for any worker count.
	Workers int
	// Batch widens every Run to this many independent token lanes advancing
	// through the one compiled graph (see exec.Options.Batch). Run feeds all
	// lanes the program's bound inputs; RunBatch rebinds per-lane inputs and
	// returns per-lane views. Lane 0 is always byte-identical to a scalar
	// run; 0 or 1 runs the scalar engine.
	Batch int
	// Ctx, if non-nil, cancels in-flight Runs early (see exec.Options.Ctx:
	// polled every exec.CancelCadence cycles, zero perturbation when the
	// context never fires). A canceled Run returns the partial RunResult —
	// whatever each output produced so far, Exec.Canceled set — together
	// with the error.
	Ctx context.Context
}

// Unit is a compiled pipe-structured program — the legacy single-goroutine
// facade over an immutable Artifact. New code (and any code sharing one
// compilation across goroutines, e.g. through the artifact cache) should
// use Artifact and per-run Bindings directly; Unit remains for the
// command-line tools' compile-once-run-once shape.
type Unit struct {
	Source   string
	Checked  *val.Checked
	Compiled *pipestruct.Result
	art      *Artifact
}

// Compile parses, checks, and compiles a pipe-structured Val program.
func Compile(src string, opts Options) (*Unit, error) {
	art, err := CompileArtifact(src, opts)
	if err != nil {
		return nil, err
	}
	return &Unit{Source: src, Checked: art.Checked, Compiled: art.Compiled, art: art}, nil
}

// Artifact returns the immutable compiled artifact backing this unit.
func (u *Unit) Artifact() *Artifact { return u.art }

// phaseRecorder is the optional sink capability for compile-phase records:
// trace.Metrics and trace.Live both implement it.
type phaseRecorder interface{ RecordPhase(trace.PhaseStat) }

// recordPhase forwards one compile-phase record to every phase-capable sink
// reachable from t (unwrapping trace.Multi fan-outs).
func recordPhase(t trace.Tracer, p trace.PhaseStat) {
	switch s := t.(type) {
	case nil:
	case trace.Multi:
		for _, sub := range s {
			recordPhase(sub, p)
		}
	case phaseRecorder:
		s.RecordPhase(p)
	}
}

// PassStats returns the per-pass compilation statistics (name, wall time,
// graph sizes) in pipeline order.
func (u *Unit) PassStats() []passes.Stat { return u.Compiled.PassStats }

// RunResult holds a machine-level run's outcome.
type RunResult struct {
	// Outputs holds each output array (with its declared index range).
	Outputs map[string]*val.ArrayVal
	// Exec is the underlying simulation result (timing, firings,
	// initiation intervals).
	Exec *exec.Result
}

// II returns the steady-state initiation interval observed at the named
// output.
func (r *RunResult) II(name string) float64 { return r.Exec.II(name) }

// Run simulates the compiled graph on the given input streams with the
// compile-time options as the binding (the graph itself is never written —
// inputs travel with the run).
func (u *Unit) Run(inputs map[string][]value.Value) (*RunResult, error) {
	return u.art.Run(Binding{}, inputs)
}

// BatchRunResult holds every lane's view of a batched run.
type BatchRunResult struct {
	// Lanes holds one RunResult per lane. Lane 0 consumed the program's
	// baseline inputs and is byte-identical to a sequential Run.
	Lanes []*RunResult
	// Exec is the underlying batched simulation result (top-level fields
	// are lane 0's; Exec.Lanes carries the raw per-lane views).
	Exec *exec.Result
}

// RunBatch simulates Options.Batch independent input sets through the one
// compiled graph in a single batched run. inputs binds the baseline streams
// every lane defaults to (and lane 0 always consumes); laneInputs[l], when
// non-nil, rebinds lane l's named inputs (lane 0's entry is ignored). Every
// stream must match the program's declared input length.
func (u *Unit) RunBatch(inputs map[string][]value.Value, laneInputs []map[string][]value.Value) (*BatchRunResult, error) {
	return u.art.RunBatch(Binding{}, inputs, laneInputs)
}

// Reference evaluates the program with the direct AST interpreter — the
// semantic baseline compiled graphs are validated against.
func (u *Unit) Reference(inputs map[string][]value.Value) (map[string]*val.ArrayVal, error) {
	return val.Interp(u.Checked, inputs)
}

// PredictII returns the analytically predicted initiation interval of the
// compiled graph (maximum cycle ratio of its timing constraints).
func (u *Unit) PredictII() (mcm.Result, error) {
	return mcm.PredictII(u.Compiled.Graph)
}

// Report renders a compile report: block table, cell statistics, buffering
// cost, and the predicted initiation interval.
func (u *Unit) Report() string {
	var b strings.Builder
	stats := u.Compiled.Graph.ComputeStats()
	fmt.Fprintf(&b, "blocks:\n")
	for _, blk := range u.Compiled.Blocks {
		fmt.Fprintf(&b, "  %-12s %-8s scheme=%-9s", blk.Name, blk.Form, blk.Scheme)
		if blk.Kind != "" {
			fmt.Fprintf(&b, " recurrence=%s", blk.Kind)
		}
		fmt.Fprintf(&b, " range=[%d, %d]\n", blk.Lo, blk.Hi)
	}
	fmt.Fprintf(&b, "cells: %d (%d buffer cells, %d buffer stages)\n",
		stats.Cells, stats.BufferCells, stats.BufferUnits)
	fmt.Fprintf(&b, "arcs:  %d\n", stats.Arcs)
	ops := make([]string, 0, len(stats.ByOp))
	for op, n := range stats.ByOp {
		ops = append(ops, fmt.Sprintf("%s:%d", op, n))
	}
	sort.Strings(ops)
	fmt.Fprintf(&b, "by op: %s\n", strings.Join(ops, " "))
	if n := len(u.Compiled.PassStats); n > 0 {
		names := make([]string, 0, n)
		for _, s := range u.Compiled.PassStats {
			names = append(names, s.Name)
		}
		fmt.Fprintf(&b, "passes: %s\n", strings.Join(names, " -> "))
	}
	for _, w := range u.Compiled.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if u.Compiled.Deduped > 0 {
		fmt.Fprintf(&b, "dedup: %d duplicate cells removed\n", u.Compiled.Deduped)
	}
	if u.Compiled.Plan != nil {
		fmt.Fprintf(&b, "balancing: %d buffer stages inserted\n", u.Compiled.Plan.Total)
	} else {
		fmt.Fprintf(&b, "balancing: skipped\n")
	}
	if pred, err := u.PredictII(); err == nil {
		fmt.Fprintf(&b, "predicted %s\n", pred)
	} else {
		fmt.Fprintf(&b, "prediction failed: %v\n", err)
	}
	return b.String()
}

// Validate runs the compiled graph against the reference interpreter on
// the given inputs and reports the first mismatch (nil if all outputs
// agree within tol).
func (u *Unit) Validate(inputs map[string][]value.Value, tol float64) error {
	got, err := u.Run(inputs)
	if err != nil {
		return err
	}
	want, err := u.Reference(inputs)
	if err != nil {
		return err
	}
	for name, w := range want {
		g, ok := got.Outputs[name]
		if !ok {
			return fmt.Errorf("core: output %s missing from run", name)
		}
		if g.Lo != w.Lo || len(g.Elems) != len(w.Elems) {
			return fmt.Errorf("core: output %s range [%d..+%d] vs reference [%d..+%d]",
				name, g.Lo, len(g.Elems), w.Lo, len(w.Elems))
		}
		for i := range w.Elems {
			if !value.Close(g.Elems[i], w.Elems[i], tol) {
				return fmt.Errorf("core: output %s[%d] = %v, reference %v",
					name, w.Lo+int64(i), g.Elems[i], w.Elems[i])
			}
		}
	}
	return nil
}
