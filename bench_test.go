// Benchmarks regenerating every figure and quantitative claim of the
// paper's evaluation (experiments E1–E17 of DESIGN.md). Each benchmark
// reports the paper's headline quantity via b.ReportMetric — II/cycles-
// per-result (2 = fully pipelined maximum), buffer counts, packet
// fractions — alongside the usual ns/op. cmd/dfbench prints the same
// measurements as tables; EXPERIMENTS.md records paper-vs-measured.
package staticpipe

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"staticpipe/internal/balance"
	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/recurrence"
	"staticpipe/internal/value"
)

// runProgram compiles (once) and measures repeated runs, reporting the
// observed initiation interval at the program's output.
func runProgram(b *testing.B, p progs.Program, opts Options) *RunResult {
	b.Helper()
	u, err := Compile(p.Source, opts)
	if err != nil {
		b.Fatal(err)
	}
	var res *RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = u.Run(Binding{}, p.Inputs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.II(p.Output), "cycles/result")
	b.ReportMetric(float64(res.Exec.Cycles), "cycles/run")
	return res
}

// --- E1: Fig 2, the scalar pipeline -----------------------------------

func BenchmarkE1Fig2ScalarPipeline(b *testing.B) {
	res := runProgram(b, progs.Fig2(1024), Options{})
	if !FullyPipelined(res, "Y") {
		b.Fatalf("not fully pipelined: II=%v", res.II("Y"))
	}
}

// --- E2: §3, rate independent of stage count --------------------------

func BenchmarkE2StageSweep(b *testing.B) {
	for _, stages := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			vals := make([]float64, 512)
			for i := range vals {
				vals[i] = float64(i)
			}
			var ii float64
			for i := 0; i < b.N; i++ {
				g := graph.New()
				prev := g.AddSource("in", value.Reals(vals))
				for s := 0; s < stages; s++ {
					id := g.Add(graph.OpID, "")
					g.Connect(prev, id, 0)
					prev = id
				}
				g.Connect(prev, g.AddSink("out"), 0)
				res, err := exec.Run(g, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ii = res.II("out")
			}
			b.ReportMetric(ii, "cycles/result")
			if ii != 2 {
				b.Fatalf("stages=%d: II=%v, want 2", stages, ii)
			}
		})
	}
}

// --- E3: Fig 4, gated array selection ---------------------------------

func BenchmarkE3Fig4ArraySelection(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			res := runProgram(b, progs.Fig4(m), Options{})
			if !FullyPipelined(res, "S") {
				b.Fatalf("not fully pipelined: II=%v", res.II("S"))
			}
		})
	}
	b.Run("unbalanced", func(b *testing.B) {
		res := runProgram(b, progs.Fig4(1024), Options{Passes: "none"})
		if FullyPipelined(res, "S") {
			b.Fatal("unbalanced graph should not reach the maximum rate")
		}
	})
}

// --- E4: Fig 5, the pipelined conditional -----------------------------

func BenchmarkE4Fig5Conditional(b *testing.B) {
	prog := progs.Fig5(1024)
	b.Run("balanced", func(b *testing.B) {
		res := runProgram(b, prog, Options{})
		if !FullyPipelined(res, "Y") {
			b.Fatalf("not fully pipelined: II=%v", res.II("Y"))
		}
	})
	b.Run("unbalanced", func(b *testing.B) {
		runProgram(b, prog, Options{Passes: "none"})
	})
}

// --- E5: Fig 6 / Example 1, the primitive forall ----------------------

func BenchmarkE5Fig6Forall(b *testing.B) {
	for _, m := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			res := runProgram(b, progs.Example1(m), Options{})
			if !FullyPipelined(res, "A") {
				b.Fatalf("not fully pipelined: II=%v", res.II("A"))
			}
		})
	}
}

// --- E6/E7: Figs 7 and 8, Todd vs companion for-iter ------------------

func BenchmarkE6Fig7Todd(b *testing.B) {
	res := runProgram(b, progs.Example2(1024), Options{ForIterScheme: ForIterTodd})
	if ii := res.II("X"); ii != 3 {
		b.Fatalf("Todd II=%v, want 3 (the paper's 1/3 rate)", ii)
	}
}

func BenchmarkE7Fig8Companion(b *testing.B) {
	res := runProgram(b, progs.Example2(1024), Options{ForIterScheme: ForIterComp})
	if ii := res.II("X"); ii != 2 {
		b.Fatalf("companion II=%v, want 2 (Theorem 3)", ii)
	}
	b.ReportMetric(3.0/res.II("X"), "speedup-vs-todd")
}

// --- E8: Fig 3 / Theorem 4, the composed pipe-structured program -------

func BenchmarkE8Fig3PipeStructured(b *testing.B) {
	res := runProgram(b, progs.Fig3(1024), Options{})
	if !FullyPipelined(res, "X") {
		b.Fatalf("composed program not fully pipelined: II=%v", res.II("X"))
	}
}

// --- E9: §8, balancing cost and optimality ----------------------------

func randomDAG(rng *rand.Rand, n int) []balance.Constraint {
	var cons []balance.Constraint
	for u := 0; u < n; u++ {
		for k := 0; k < 3; k++ {
			v := u + 1 + rng.Intn(n-u)
			if v < n {
				cons = append(cons, balance.Constraint{U: u, V: v, W: 1})
			}
		}
	}
	return cons
}

func BenchmarkE9Balancing(b *testing.B) {
	for _, n := range []int{50, 200, 1000} {
		cons := randomDAG(rand.New(rand.NewSource(9)), n)
		b.Run(fmt.Sprintf("optimal/n=%d", n), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				pi, err := balance.Solve(n, cons)
				if err != nil {
					b.Fatal(err)
				}
				total = balance.TotalSlack(cons, pi)
			}
			b.ReportMetric(float64(total), "buffers")
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				pi, err := balance.Naive(n, cons)
				if err != nil {
					b.Fatal(err)
				}
				total = balance.TotalSlack(cons, pi)
			}
			b.ReportMetric(float64(total), "buffers")
		})
	}
}

// --- E10: §9, the delay-for-rate interleaved recurrence ----------------

func BenchmarkE10DelayFIFO(b *testing.B) {
	n := 256
	for _, rows := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var ii float64
			for i := 0; i < b.N; i++ {
				g := graph.New()
				av := make([]value.Value, rows*n)
				bv := make([]value.Value, rows*n)
				for j := range av {
					av[j] = value.R(0.7)
					bv[j] = value.R(float64(j%5) - 2)
				}
				out, err := foriter.InterleavedLinear(g, "x", rows, n,
					g.AddSource("a", av), g.AddSource("b", bv),
					value.Reals(make([]float64, rows)))
				if err != nil {
					b.Fatal(err)
				}
				g.Connect(out, g.AddSink("x"), 0)
				res, err := exec.Run(g, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ii = res.II("x")
			}
			b.ReportMetric(ii, "cycles/result")
			b.ReportMetric(float64(2*rows-3), "fifo-stages")
			if ii != 2 {
				b.Fatalf("rows=%d: II=%v, want 2", rows, ii)
			}
		})
	}
}

// --- E11: §7, companion tree depth -------------------------------------

func BenchmarkE11CompanionTree(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 4, 8, 16} {
		ps := make([]recurrence.Param, p)
		for i := range ps {
			ps[i] = recurrence.Param{A: rng.Float64(), B: rng.Float64()}
		}
		b.Run(fmt.Sprintf("tree/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recurrence.ComposeTree(ps)
			}
			b.ReportMetric(float64(recurrence.TreeDepth(p)), "levels")
		})
		b.Run(fmt.Sprintf("linear/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := ps[0]
				for j := 1; j < len(ps); j++ {
					c = recurrence.G(ps[j], c)
				}
				_ = c
			}
			b.ReportMetric(float64(p-1), "levels")
		})
	}
}

// --- E12: §2, array-memory packet fraction ----------------------------

func BenchmarkE12AMTraffic(b *testing.B) {
	src := `
param m = 64;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
    Q : real := P*P + 0.5*P + 1.;
    S : real := Q*Q - P*Q + 2.*P;
  construct B[i]*(S*S) + Q
  endall;
output A;
`
	u, err := Compile(src, Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := 64
	bs := make([]float64, m+2)
	c := make([]float64, m+2)
	for i := range bs {
		bs[i] = 1
		c[i] = float64(i)
	}
	inputs := map[string][]Value{"B": Reals(bs), "C": Reals(c)}
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunMachine(u, inputs, MachineConfig{PEs: 8, AMs: 2})
		if err != nil {
			b.Fatal(err)
		}
		frac = res.AMFraction()
	}
	b.ReportMetric(frac, "am-fraction")
	if frac > 1.0/8 {
		b.Fatalf("AM fraction %.3f exceeds the paper's 1/8", frac)
	}
}

// --- E13: machine-level PE scaling -------------------------------------

func BenchmarkE13PEScaling(b *testing.B) {
	prog := progs.Fig3(128)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pes := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			var cycles int
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := RunMachine(u, prog.Inputs, MachineConfig{PEs: pes, AMs: 4})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				util = res.Utilization()
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
			b.ReportMetric(util, "pe-utilization")
		})
	}
}

// --- E14: §6, forall parallel vs pipeline scheme ------------------------

func BenchmarkE14ForallSchemes(b *testing.B) {
	prog := progs.Example1(48)
	for _, scheme := range []struct {
		name string
		opt  Options
	}{
		{"pipeline", Options{ForallScheme: ForallPipeline}},
		{"parallel", Options{ForallScheme: ForallParallel}},
	} {
		b.Run(scheme.name, func(b *testing.B) {
			u, err := Compile(prog.Source, scheme.opt)
			if err != nil {
				b.Fatal(err)
			}
			var res *RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = u.Run(Binding{}, prog.Inputs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(u.Compiled.Graph.ComputeStats().Cells), "cells")
			b.ReportMetric(res.II("A"), "cycles/result")
		})
	}
}

// --- E15: §9 extension, two-dimensional arrays --------------------------

func BenchmarkE15TwoD(b *testing.B) {
	src := `
param m = 24;
param n = 24;
input U : array2[real] [0, m+1][0, n+1];
V : array2[real] :=
  forall i in [0, m+1], j in [0, n+1]
  construct if (i = 0) | (i = m+1) | (j = 0) | (j = n+1)
            then U[i, j]
            else 0.25 * (U[i-1, j] + U[i+1, j] + U[i, j-1] + U[i, j+1])
            endif
  endall;
output V;
`
	u, err := Compile(src, Options{})
	if err != nil {
		b.Fatal(err)
	}
	side := 26
	us := make([]value.Value, side*side)
	for i := range us {
		us[i] = value.R(float64(i%9) / 9)
	}
	inputs := map[string][]Value{"U": us}
	var res *RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = u.Run(Binding{}, inputs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.II("V"), "cycles/result")
	if !FullyPipelined(res, "V") {
		b.Fatalf("2-D sweep not fully pipelined: II=%v", res.II("V"))
	}
}

// --- E16: ablations ------------------------------------------------------

func BenchmarkE16LiteralControl(b *testing.B) {
	prog := progs.Example1(64)
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"idealized", Options{}},
		{"literal", Options{LiteralControl: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			u, err := Compile(prog.Source, cfg.opt)
			if err != nil {
				b.Fatal(err)
			}
			var res *RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = u.Run(Binding{}, prog.Inputs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(u.Compiled.Graph.ComputeStats().Cells), "cells")
			b.ReportMetric(res.II("A"), "cycles/result")
		})
	}
}

func BenchmarkE16Placement(b *testing.B) {
	prog := progs.Fig3(64)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name   string
		assign machine.Assignment
	}{
		{"round-robin", machine.RoundRobin},
		{"random", machine.Random},
		{"by-stage", machine.ByStage},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				res, err := RunMachine(u, prog.Inputs, MachineConfig{PEs: 8, AMs: 4, Assign: cfg.assign, Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}

func BenchmarkE16Network(b *testing.B) {
	prog := progs.Fig3(64)
	u, err := Compile(prog.Source, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		net  machine.NetworkKind
	}{
		{"crossbar", machine.Crossbar},
		{"butterfly", machine.Butterfly},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				res, err := RunMachine(u, prog.Inputs, MachineConfig{PEs: 8, AMs: 4, Network: cfg.net})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}

// --- E18: compilation cost of the pass pipeline --------------------------

// BenchmarkCompile tracks compile-time cost across pass pipelines (the
// per-pass split is available from Program.PassStats or dfc -stats).
func BenchmarkCompile(b *testing.B) {
	prog := progs.Fig3(256)
	for _, cfg := range []struct {
		name   string
		passes string
	}{
		{"none", "none"},
		{"balance", "balance"},
		{"balance-naive", "balance-naive"},
		{"dedup-balance", "dedup,balance"},
		{"full", "literal-control,arm-slack,dedup,balance,expand-fifos"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := Options{Passes: cfg.passes}
			var u *Program
			var err error
			for i := 0; i < b.N; i++ {
				u, err = Compile(prog.Source, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(u.Compiled.Graph.NumNodes()), "cells")
		})
	}
}

// forallChain is a chain of k forall blocks over m = 64 elements: a 3-point
// stencil, then elementwise blocks that each reconverge on the block two
// back, so every block needs buffering. It compiles to 8k+5 cells.
func forallChain(k int) string {
	var b strings.Builder
	b.WriteString("param m = 64;\ninput A : array[real] [0, m+1];\n")
	b.WriteString("B0 : array[real] :=\n  forall i in [1, m]\n  construct 0.25*(A[i-1] + 2.*A[i] + A[i+1])\n  endall;\n")
	back := "A"
	for j := 1; j < k; j++ {
		fmt.Fprintf(&b, "B%d : array[real] :=\n  forall i in [1, m]\n  construct 0.5*B%d[i] + 0.25*%s[i]\n  endall;\n", j, j-1, back)
		back = fmt.Sprintf("B%d", j-1)
	}
	fmt.Fprintf(&b, "output B%d;\n", k-1)
	return b.String()
}

// BenchmarkCompileScaling tracks how compile time grows with program size
// (§8: balancing is polynomial; its min-cost-flow solve dominates a
// compile) on forall chains of about 512, 2048 and 8192 cells, and how the
// machine placement of the compiled graph on 8 PEs grows with it
// (place/blocks=k: the critical-cycle search plus the min-cost assignment
// rounds).
func BenchmarkCompileScaling(b *testing.B) {
	for _, k := range []int{64, 256, 1024} {
		src := forallChain(k)
		b.Run(fmt.Sprintf("blocks=%d", k), func(b *testing.B) {
			var u *Program
			var err error
			for i := 0; i < b.N; i++ {
				u, err = Compile(src, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(u.Compiled.Graph.ComputeStats().Cells), "cells")
			b.ReportMetric(float64(u.Compiled.Plan.Total), "buffer-stages")
		})
		b.Run(fmt.Sprintf("place/blocks=%d", k), func(b *testing.B) {
			u, err := Compile(src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var pl *place.Placement
			for i := 0; i < b.N; i++ {
				pl, err = place.Plan(u.Compiled.Graph, place.Options{PEs: 8})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(u.Compiled.Graph.ComputeStats().Cells), "cells")
			b.ReportMetric(float64(pl.Cost), "cut-cost")
		})
	}
}

// --- E17: common-cell elimination ablation -------------------------------

func BenchmarkE17Dedup(b *testing.B) {
	prog := progs.Fig3(256)
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{}},
		{"dedup", Options{Passes: "dedup,balance"}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			u, err := Compile(prog.Source, cfg.opt)
			if err != nil {
				b.Fatal(err)
			}
			var res *RunResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = u.Run(Binding{}, prog.Inputs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(u.Compiled.Graph.ComputeStats().Cells), "cells")
			b.ReportMetric(res.II("X"), "cycles/result")
		})
	}
}
