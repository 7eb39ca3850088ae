package place_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/mcm"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/trace"
	"staticpipe/internal/trace/analyze"
	"staticpipe/internal/value"
)

// contentionKernel builds w parallel d-cell identity chains with cell
// creation interleaved across chains (row by row), so contiguous-ID
// placement (ByStage) cuts every chain arc while a connectivity-aware
// mapping keeps each chain on one PE.
func contentionKernel(w, d, n int) *graph.Graph {
	g := graph.New()
	prev := make([]*graph.Node, w)
	for k := 0; k < w; k++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i*w + k)
		}
		prev[k] = g.AddSource(fmt.Sprintf("in%d", k), value.Reals(vals))
	}
	for s := 0; s < d; s++ {
		for k := 0; k < w; k++ {
			c := g.Add(graph.OpID, "")
			g.Connect(prev[k], c, 0)
			prev[k] = c
		}
	}
	for k := 0; k < w; k++ {
		g.Connect(prev[k], g.AddSink(fmt.Sprintf("out%d", k)), 0)
	}
	return g
}

// kernelConfig is the machine shape the contention kernel is tuned for:
// two cells per PE is the §2 design point (cell rate 1/2, PE bandwidth 1),
// one AM cell per array memory keeps the array side out of the verdict,
// and unit network delay makes routing contention, not raw transit, the
// bystage penalty.
func kernelConfig(w int) machine.Config {
	return machine.Config{PEs: w, FUs: 1, AMs: 2 * w, NetDelay: 1}
}

func mustRun(t *testing.T, g *graph.Graph, cfg machine.Config) (*machine.Result, *analyze.Analysis) {
	t.Helper()
	m := trace.NewMetrics()
	cfg.Tracer = m
	res, err := machine.Run(g, cfg)
	if err != nil {
		t.Fatalf("machine.Run (%s): %v", cfg.Assign, err)
	}
	a, err := analyze.Analyze(res.Graph(), m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res, a
}

func TestPlanShapeAndDeterminism(t *testing.T) {
	g := contentionKernel(4, 3, 16)
	pl, err := place.Plan(g, place.Options{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	eg := g.ExpandFIFOs()
	if len(pl.PE) != eg.NumNodes() {
		t.Fatalf("map length %d, graph has %d nodes", len(pl.PE), eg.NumNodes())
	}
	load := make([]int, 4)
	nc := 0
	for _, n := range eg.Nodes() {
		pe := pl.PE[n.ID]
		if n.Op == graph.OpSource || n.Op == graph.OpSink {
			if pe != -1 {
				t.Fatalf("%s mapped to PE %d, want -1 (AM-resident)", n.Name(), pe)
			}
			continue
		}
		nc++
		if pe < 0 || pe >= 4 {
			t.Fatalf("%s mapped to PE %d, want [0,4)", n.Name(), pe)
		}
		load[pe]++
	}
	cap := (nc + 3) / 4
	for pe, l := range load {
		if l > cap {
			t.Fatalf("PE %d hosts %d cells, cap is %d", pe, l, cap)
		}
	}
	if pl.Cost > pl.SeedCost {
		t.Fatalf("refined cost %d exceeds seed cost %d", pl.Cost, pl.SeedCost)
	}
	// Each 3-cell chain fits one PE entirely, so only AM-side arcs remain.
	if pl.Cost != 0 {
		t.Fatalf("chain kernel cut cost = %d, want 0 (chains co-located)", pl.Cost)
	}
	again, err := place.Plan(g, place.Options{PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl.PE, again.PE) {
		t.Fatal("Plan is not deterministic")
	}

	if _, err := place.Plan(g, place.Options{}); err == nil {
		t.Fatal("Plan accepted PEs=0")
	}
	one, err := place.Plan(g, place.Options{PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range eg.Nodes() {
		if n.Op != graph.OpSource && n.Op != graph.OpSink && one.PE[n.ID] != 0 {
			t.Fatalf("PEs=1 mapped %s to %d", n.Name(), one.PE[n.ID])
		}
	}
}

// TestContentionKernelSeverity pins the tentpole's headline behavior: on a
// kernel whose ID order fights contiguous placement, the min-cost mapping
// strictly lowers the analyzer's contention severity versus ByStage and
// beats the hot-spot placement by well over 2x in simulated time, while
// every placement computes byte-identical output streams.
func TestContentionKernelSeverity(t *testing.T) {
	const w, d, n = 8, 2, 256
	g := contentionKernel(w, d, n)
	base := kernelConfig(w)

	pl, err := place.Plan(g, place.Options{PEs: base.PEs})
	if err != nil {
		t.Fatal(err)
	}

	stage := base
	stage.Assign = machine.ByStage
	hot := base
	hot.Assign = machine.HotSpot
	placed := base
	placed.Assign = machine.Placed
	placed.Placement = pl.PE

	stageRes, stageA := mustRun(t, g, stage)
	hotRes, _ := mustRun(t, g, hot)
	minRes, minA := mustRun(t, g, placed)

	if !reflect.DeepEqual(stageRes.Outputs, minRes.Outputs) || !reflect.DeepEqual(stageRes.Outputs, hotRes.Outputs) {
		t.Fatal("outputs differ across placements")
	}
	if minA.Severity >= stageA.Severity {
		t.Fatalf("min-cost severity %d (%s) not below bystage %d (%s)",
			minA.Severity, minA.Remarks[0], stageA.Severity, stageA.Remarks[0])
	}
	if 2*minRes.Cycles > hotRes.Cycles {
		t.Fatalf("min-cost %d cycles vs hot-spot %d: less than 2x", minRes.Cycles, hotRes.Cycles)
	}
	if minRes.Cycles >= stageRes.Cycles {
		t.Fatalf("min-cost %d cycles not below bystage %d", minRes.Cycles, stageRes.Cycles)
	}

	// The delta report grades this as an improvement in both directions
	// that matter: from the hot-spot demo and from bystage.
	delta := analyze.RenderDelta(stageA, minA)
	if want := "contention: improved"; !strings.Contains(delta, want) {
		t.Fatalf("delta report missing %q:\n%s", want, delta)
	}
}

// TestProfileGuidedPlan exercises the trace.Metrics-weighted mode: metrics
// from a deliberately bad baseline run still describe the dataflow (firing
// counts are placement-independent), so re-planning from them recovers the
// same contention win.
func TestProfileGuidedPlan(t *testing.T) {
	const w, d, n = 8, 2, 128
	g := contentionKernel(w, d, n)
	base := kernelConfig(w)

	m := trace.NewMetrics()
	hot := base
	hot.Assign = machine.HotSpot
	hot.Tracer = m
	hotRes, err := machine.Run(g, hot)
	if err != nil {
		t.Fatal(err)
	}

	pl, err := place.Plan(g, place.Options{PEs: base.PEs, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	placed := base
	placed.Assign = machine.Placed
	placed.Placement = pl.PE
	res, err := machine.Run(g, placed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hotRes.Outputs, res.Outputs) {
		t.Fatal("profile-guided outputs differ from baseline")
	}
	if 2*res.Cycles > hotRes.Cycles {
		t.Fatalf("profile-guided %d cycles vs hot-spot baseline %d: less than 2x", res.Cycles, hotRes.Cycles)
	}
}

// TestCriticalCycleCoLocated checks the critical-cycle boost on a real
// program: Example 2's first-order recurrence carries a rate-bounding
// cycle, and the planned mapping must keep that cycle's compute cells on
// one PE whenever they fit under the load cap.
func TestCriticalCycleCoLocated(t *testing.T) {
	p := progs.Example2(32)
	u, err := core.CompileArtifact(p.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const pes = 2
	mp, err := u.Machine()
	if err != nil {
		t.Fatal(err)
	}
	tab := mp.Table()
	pl, err := place.PlanTable(tab, place.Options{PEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	_, crit, err := mcm.Critical(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) == 0 {
		t.Skip("no critical cycle on this graph")
	}
	pe := -1
	for _, id := range crit {
		n := tab.Graph().Node(id)
		if n.Op == graph.OpSource || n.Op == graph.OpSink {
			continue
		}
		if pe == -1 {
			pe = pl.PE[id]
		}
		if pl.PE[id] != pe {
			t.Fatalf("critical cycle split across PEs: %s on %d, expected %d", n.Name(), pl.PE[id], pe)
		}
	}
}

// TestPlacedValidation pins the machine-side contract errors.
func TestPlacedValidation(t *testing.T) {
	g := contentionKernel(2, 2, 4)
	cfg := machine.Config{PEs: 2, FUs: 1, AMs: 1, Assign: machine.Placed}

	cfg.Placement = []int{0}
	if _, err := machine.Run(g, cfg); err == nil {
		t.Fatal("short placement map accepted")
	}

	pl, err := place.Plan(g, place.Options{PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]int(nil), pl.PE...)
	for i, pe := range bad {
		if pe >= 0 {
			bad[i] = 99
			break
		}
	}
	cfg.Placement = bad
	if _, err := machine.Run(g, cfg); err == nil {
		t.Fatal("out-of-range PE accepted")
	}

	cfg.Placement = pl.PE
	if _, err := machine.Run(g, cfg); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
}

// forallChain is a chain of k forall blocks over 64 elements, each
// reconverging on the block two back (the compile-scaling benchmark's
// program family).
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

// TestWarmRefinementMatchesCold: re-solving each refinement round from the
// previous round's simplex tree gives the same plans as solving every
// round from scratch, on the paper's programs and a forall chain at the
// machine sizes the benchmarks place for. Each round's optimal assignment
// cost is the same either way (the mincost re-solve tests check that); a
// round with several optimal assignments may pick another of them, and at
// some other PE counts (2–5 and 12 here) that sends the two refinements
// apart, with final cuts differing either way.
func TestWarmRefinementMatchesCold(t *testing.T) {
	srcs := map[string]string{"chain64": forallChain(64)}
	for _, p := range []progs.Program{progs.Fig2(32), progs.Fig4(32), progs.Fig5(32),
		progs.Example1(32), progs.Example2(32), progs.Fig3(32), progs.Weather(32)} {
		srcs[p.Name] = p.Source
	}
	refined := 0
	for name, src := range srcs {
		u, err := core.CompileArtifact(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pes := range []int{8, 16} {
			opts := place.Options{PEs: pes}
			warm, err := place.Plan(u.Compiled.Graph, opts)
			if err != nil {
				t.Fatalf("%s on %d PEs: %v", name, pes, err)
			}
			cold, err := place.PlanCold(u.Compiled.Graph, opts)
			if err != nil {
				t.Fatalf("%s on %d PEs (cold): %v", name, pes, err)
			}
			if warm.Cost != cold.Cost || warm.Rounds != cold.Rounds {
				t.Errorf("%s on %d PEs: warm cut %d after %d rounds, cold %d after %d",
					name, pes, warm.Cost, warm.Rounds, cold.Cost, cold.Rounds)
			}
			if !reflect.DeepEqual(warm.PE, cold.PE) {
				t.Errorf("%s on %d PEs: warm and cold mappings differ", name, pes)
			}
			if warm.Rounds > 1 {
				refined++
			}
		}
	}
	if refined == 0 {
		t.Error("no plan took a second refinement round: the warm re-solve went unchecked")
	}
}

// TestPlanTableAllocations pins the solver workspaces' footprint: one
// PlanTable of weather at 512 elements on 8 PEs — the critical-cycle
// search, the seed and every refinement round's assignment solve —
// allocated 290 KB in 1,515 allocations while its networks regrew and
// copied their arc arrays, and about 78 KiB in about 60 once they were
// sized once and shared.
func TestPlanTableAllocations(t *testing.T) {
	art, err := core.CompileArtifact(progs.Weather(512).Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := art.Machine()
	if err != nil {
		t.Fatal(err)
	}
	tab := mp.Table()
	plan := func() {
		if _, err := place.PlanTable(tab, place.Options{PEs: 8}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	plan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		plan()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, plan)
	t.Logf("%d bytes in %.0f allocations per call", bytes, allocs)
	if bytes > 96<<10 || allocs > 80 {
		t.Fatalf("PlanTable(weather 512, 8 PEs): %d bytes in %.0f allocations per call, want at most %d in 80",
			bytes, allocs, 96<<10)
	}
}
