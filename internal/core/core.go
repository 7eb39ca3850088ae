// Package core assembles the paper's contribution end to end: it compiles
// a pipe-structured Val program into a fully pipelined static dataflow
// instruction graph (Theorems 1–4) and runs it on either simulator, with
// the reference interpreter available for validation.
//
// The API has one compile/run shape, mirroring the paper's split between a
// program loaded into the machine and the array operands that stream
// through it: CompileArtifact builds an immutable Artifact, and each run
// binds its inputs and its per-run attachments (context, tracer, progress,
// lane width, cycle bound) in a Binding. Nothing on a run path writes the
// Artifact, so one compilation serves any number of concurrent runs.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"staticpipe/internal/exec"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/passes"
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
	// instruction subgraphs instead of idealized generator cells. It is a
	// construction choice, not the literal-control pass: construction
	// keeps some generators idealized, while the pass expands every finite
	// one (docs/COMPILER.md compares the two).
	LiteralControl bool
	// Passes is the comma-separated post-construction pass list run over
	// the assembled instruction graph (passes.Parse; passes.Names lists
	// the registry). "" is the paper's default, optimal balancing alone;
	// "none" runs no pass.
	Passes string
	// VerifyEach runs the IR verifier (graph.Verify and, once balanced, the
	// §3 equal-path-length check) after every compilation pass.
	VerifyEach bool
	// Snapshot, if non-nil, receives the instruction graph after every
	// compilation pass. The graph is live; hooks must render what they need
	// synchronously.
	Snapshot func(pass string, g *graph.Graph)
	// Batch is the lane width a Binding with Batch 0 falls back to (see
	// Binding.Batch). It does not shape the compiled graph and is not part
	// of the artifact cache key; it remains only because the benchmark
	// harness (perfbench/workloads.go) still compiles with it. New code
	// sets Binding.Batch.
	Batch int
}

// Key returns a canonical, injective encoding of every field that shapes
// the compiled artifact: ForallScheme, ForIterScheme, LiteralControl and
// Passes, the last in its canonical spelling (passes.Canonical), so ""
// and " balance" key as "balance" does. Two Options with equal keys
// compile any source to the same graph, so an artifact cache keys on the
// source plus this string. The other fields stay out: Batch binds per run
// (Binding.Batch), and VerifyEach and Snapshot only observe the
// compilation. A new field must join one side or the other
// (TestOptionsKeyCoversEveryField).
func (o Options) Key() string {
	b := binary.AppendVarint(nil, int64(o.ForallScheme))
	b = binary.AppendVarint(b, int64(o.ForIterScheme))
	lit := byte(0)
	if o.LiteralControl {
		lit = 1
	}
	b = append(b, lit)
	list := passes.Canonical(o.Passes)
	b = binary.AppendUvarint(b, uint64(len(list)))
	return string(append(b, list...))
}

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

// BatchRunResult holds every lane's view of a batched run.
type BatchRunResult struct {
	// Lanes holds one RunResult per lane. Lane 0 consumed the program's
	// baseline inputs and is byte-identical to a sequential Run.
	Lanes []*RunResult
	// Exec is the underlying batched simulation result (top-level fields
	// are lane 0's; Exec.Lanes carries the raw per-lane views).
	Exec *exec.Result
}

// Reference evaluates the program with the direct AST interpreter — the
// semantic baseline compiled graphs are validated against.
func (a *Artifact) Reference(inputs map[string][]value.Value) (map[string]*val.ArrayVal, error) {
	return val.Interp(a.Checked, inputs)
}

// PredictII returns the analytically predicted initiation interval of the
// compiled graph (maximum cycle ratio of its timing constraints), read
// from the artifact's lowered form.
func (a *Artifact) PredictII() (mcm.Result, error) {
	return mcm.PredictTable(a.tab)
}

// Report renders a compile report: block table, cell statistics, buffering
// cost, and the predicted initiation interval.
func (a *Artifact) Report() string {
	var b strings.Builder
	stats := a.Compiled.Graph.ComputeStats()
	fmt.Fprintf(&b, "blocks:\n")
	for _, blk := range a.Compiled.Blocks {
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
	if n := len(a.Compiled.PassStats); n > 0 {
		names := make([]string, 0, n)
		for _, s := range a.Compiled.PassStats {
			names = append(names, s.Name)
		}
		fmt.Fprintf(&b, "passes: %s\n", strings.Join(names, " -> "))
	}
	for _, w := range a.Compiled.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	if a.Compiled.Deduped > 0 {
		fmt.Fprintf(&b, "dedup: %d duplicate cells removed\n", a.Compiled.Deduped)
	}
	if a.Compiled.Plan != nil {
		fmt.Fprintf(&b, "balancing: %d buffer stages inserted\n", a.Compiled.Plan.Total)
	} else {
		fmt.Fprintf(&b, "balancing: skipped\n")
	}
	if pred, err := a.PredictII(); err == nil {
		fmt.Fprintf(&b, "predicted %s\n", pred)
	} else {
		fmt.Fprintf(&b, "prediction failed: %v\n", err)
	}
	return b.String()
}

// Validate runs the compiled graph against the reference interpreter on
// the given inputs and reports the first mismatch (nil if all outputs
// agree within tol).
func (a *Artifact) Validate(inputs map[string][]value.Value, tol float64) error {
	got, err := a.Run(Binding{}, inputs)
	if err != nil {
		return err
	}
	want, err := a.Reference(inputs)
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
