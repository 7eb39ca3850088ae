// Package staticpipe reproduces Dennis & Gao, "Maximum Pipelining of Array
// Operations on Static Data Flow Machine" (MIT CSG Memo 233 / ICPP 1983):
// a compiler from pipe-structured Val programs — acyclic compositions of
// forall and for-iter array blocks — to machine-level static dataflow
// instruction graphs that run fully pipelined (one result per two
// instruction times), together with two simulators that execute those
// graphs: the firing-rule simulator of package exec and the packet-level
// machine of package machine (PEs, function units, array memories, routing
// networks).
//
// Quick start:
//
//	p, err := staticpipe.Compile(src, staticpipe.Options{})
//	res, err := p.Run(staticpipe.Binding{}, map[string][]staticpipe.Value{"C": staticpipe.Reals(data)})
//	fmt.Println(res.Outputs["A"], res.II("A")) // II == 2: fully pipelined
//
// As in the paper, the program is an instruction graph loaded once and the
// array operands stream through it at run time: Compile returns an
// immutable Program, and every run binds its own inputs and attachments
// (context, tracer, lane width) in a Binding, so one Program serves any
// number of concurrent runs.
//
// Compilation is organized as an explicit pipeline of graph passes
// (common-cell elimination, balancing, control-generator expansion, …);
// Options.Passes selects them by name and docs/COMPILER.md documents the
// pipeline, the per-pass verifier, and the differential test harness.
//
// The Val subset, the compilation schemes (selection gating, Todd's
// for-iter scheme, the companion-function pipeline), and the balancing
// algorithms (including the min-cost-flow optimum of §8) are documented in
// DESIGN.md; EXPERIMENTS.md records the reproduction of every figure and
// quantitative claim in the paper.
package staticpipe

import (
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/forall"
	"staticpipe/internal/foriter"
	"staticpipe/internal/machine"
	"staticpipe/internal/passes"
	"staticpipe/internal/value"
)

// Value is a scalar datum (integer, real, or boolean).
type Value = value.Value

// Reals converts a float64 slice to a value stream.
func Reals(xs []float64) []Value { return value.Reals(xs) }

// Ints converts an int64 slice to a value stream.
func Ints(xs []int64) []Value { return value.Ints(xs) }

// Floats converts a value stream back to float64s.
func Floats(vs []Value) []float64 { return value.Floats(vs) }

// Options selects compilation strategies; the zero value is the paper's
// recommended configuration (pipeline foralls, companion-scheme for-iters,
// optimal balancing). Compilation runs as an explicit pass pipeline:
// Options.Passes names the passes to run (see PassNames), while the legacy
// strategy booleans translate to the equivalent pass list.
type Options = core.Options

// PassStat is one compilation pass's execution record (name, wall time,
// graph sizes before and after).
type PassStat = passes.Stat

// PassNames returns the registered compilation pass names in canonical
// pipeline order, for use in Options.Passes.
func PassNames() []string { return passes.Names() }

// Scheme selectors re-exported for Options.
const (
	ForallPipeline = forall.Pipeline
	ForallParallel = forall.Parallel
	ForIterAuto    = foriter.Auto
	ForIterTodd    = foriter.Todd
	ForIterComp    = foriter.Companion
)

// Program is a compiled pipe-structured program. It is immutable: runs
// (Run, RunBatch, RunMachine) bind their inputs per run and never write it.
type Program = core.Artifact

// Binding is one run's attachment set: cancellation context, tracer,
// progress counters, lane width and cycle bound. The zero Binding is a
// plain scalar run.
type Binding = core.Binding

// RunResult is the outcome of a graph-level run.
type RunResult = core.RunResult

// Compile parses, type-checks, and compiles a pipe-structured Val program
// into a balanced, fully pipelined instruction graph.
func Compile(src string, opts Options) (*Program, error) {
	return core.CompileArtifact(src, opts)
}

// MachineConfig describes a packet-level machine (PE/FU/AM counts, routing
// network, placement strategy).
type MachineConfig = machine.Config

// Routing network selectors for MachineConfig.Network.
const (
	NetCrossbar  = machine.Crossbar
	NetButterfly = machine.Butterfly
)

// MachineResult is a packet-level run's outcome and statistics.
type MachineResult = machine.Result

// RunMachine executes a compiled program on the cycle-accurate packet-level
// machine simulator. Every declared input must be bound with its declared
// length; names the program does not declare are ignored. The inputs bind
// for this run only (cfg.Inputs is replaced with them).
func RunMachine(p *Program, inputs map[string][]Value, cfg MachineConfig) (*MachineResult, error) {
	binds, err := p.Compiled.BindInputs(inputs)
	if err != nil {
		return nil, err
	}
	mp, err := p.Machine()
	if err != nil {
		return nil, err
	}
	cfg.Inputs = binds
	return mp.Run(cfg)
}

// PredictII returns the analytical initiation-interval bound of a compiled
// program (maximum cycle ratio of its timing constraints; 2 = fully
// pipelined).
func PredictII(p *Program) (float64, error) {
	r, err := p.PredictII()
	if err != nil {
		return 0, err
	}
	return r.Float(), nil
}

// FullyPipelined reports whether a run sustained the architecture's
// maximum rate at the named output.
func FullyPipelined(r *RunResult, output string) bool {
	return r.Exec.FullyPipelined(output)
}

// ExecOptions configures graph-level simulation (exposed for advanced use).
type ExecOptions = exec.Options
