package machine

import (
	"fmt"
	"math"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// compileVal compiles a Val program straight through the pipestruct layer
// (this package cannot import core: core's artifacts wrap machine.Prepared).
func compileVal(t *testing.T, src string) *pipestruct.Result {
	t.Helper()
	prog, err := val.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := val.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := pipestruct.Compile(checked, pipestruct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// fig2 builds the §3 scalar pipeline over n input pairs.
func fig2(n int) (*graph.Graph, []float64) {
	g := graph.New()
	as := make([]float64, n)
	bs := make([]float64, n)
	want := make([]float64, n)
	for i := range as {
		as[i] = float64(i) * 0.25
		bs[i] = 3 - float64(i)*0.5
		y := as[i] * bs[i]
		want[i] = (y + 2) * (y - 3)
	}
	a := g.AddSource("a", value.Reals(as))
	b := g.AddSource("b", value.Reals(bs))
	mul := g.Add(graph.OpMul, "cell1")
	add := g.Add(graph.OpAdd, "cell2")
	sub := g.Add(graph.OpSub, "cell3")
	mul2 := g.Add(graph.OpMul, "cell4")
	sink := g.AddSink("out")
	g.Connect(a, mul, 0)
	g.Connect(b, mul, 1)
	g.Connect(mul, add, 0)
	g.SetLiteral(add, 1, value.R(2))
	g.Connect(mul, sub, 0)
	g.SetLiteral(sub, 1, value.R(3))
	g.Connect(add, mul2, 0)
	g.Connect(sub, mul2, 1)
	g.Connect(mul2, sink, 0)
	return g, want
}

func TestFig2OnMachine(t *testing.T) {
	g, want := fig2(48)
	res, err := Run(g, Config{PEs: 4, AMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	if len(got) != len(want) {
		t.Fatalf("got %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].AsReal() != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !res.Clean {
		t.Errorf("machine left residue: %v", res.Stalled)
	}
	if res.TotalPackets == 0 || res.Packets["ack"] == 0 || res.Packets["operation"] == 0 {
		t.Errorf("packet accounting empty: %v", res.Packets)
	}
}

// TestMachineMatchesExec cross-validates the packet-level machine against
// the firing-rule simulator on the same graph.
func TestMachineMatchesExec(t *testing.T) {
	for _, cfg := range []Config{
		{PEs: 1, AMs: 1},
		{PEs: 4, AMs: 2},
		{PEs: 8, FUs: 4, AMs: 3, Network: Butterfly},
		{PEs: 3, Assign: Random, Seed: 11},
		{PEs: 3, Assign: ByStage},
	} {
		g, _ := fig2(32)
		mres, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		g2, _ := fig2(32)
		eres, err := exec.Run(g2, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		em, gm := eres.Output("out"), mres.Output("out")
		if len(em) != len(gm) {
			t.Fatalf("%+v: %d vs %d outputs", cfg, len(gm), len(em))
		}
		for i := range em {
			if !value.Equal(em[i], gm[i]) {
				t.Errorf("%+v: out[%d] = %v, exec %v", cfg, i, gm[i], em[i])
			}
		}
	}
}

// wideGraph builds w independent copies of the Fig 2 pipeline — the kind
// of wide workload whose aggregate throughput is PE-bound rather than
// latency-bound.
func wideGraph(w, n int) *graph.Graph {
	g := graph.New()
	for k := 0; k < w; k++ {
		as := make([]float64, n)
		bs := make([]float64, n)
		for i := range as {
			as[i] = float64(i + k)
			bs[i] = float64(i - k)
		}
		a := g.AddSource("a", value.Reals(as))
		b := g.AddSource("b", value.Reals(bs))
		mul := g.Add(graph.OpMul, "")
		add := g.Add(graph.OpAdd, "")
		sub := g.Add(graph.OpSub, "")
		mul2 := g.Add(graph.OpMul, "")
		sink := g.AddSink(fmt.Sprintf("out%d", k))
		g.Connect(a, mul, 0)
		g.Connect(b, mul, 1)
		g.Connect(mul, add, 0)
		g.SetLiteral(add, 1, value.R(2))
		g.Connect(mul, sub, 0)
		g.SetLiteral(sub, 1, value.R(3))
		g.Connect(add, mul2, 0)
		g.Connect(sub, mul2, 1)
		g.Connect(mul2, sink, 0)
	}
	return g
}

// TestPEScalingImprovesThroughput verifies that adding PEs speeds up a
// wide workload: a single Fig 2 pipe is latency-bound (the ack round trip
// sets its rate), but eight independent pipes sharing the machine are
// PE-bandwidth-bound, and their makespan drops as PEs are added (E13).
func TestPEScalingImprovesThroughput(t *testing.T) {
	cycles := map[int]int{}
	for _, pes := range []int{1, 4, 16} {
		res, err := Run(wideGraph(8, 48), Config{PEs: pes, AMs: 8})
		if err != nil {
			t.Fatal(err)
		}
		cycles[pes] = res.Cycles
	}
	if cycles[4] >= cycles[1] {
		t.Errorf("4 PEs (%d cycles) not faster than 1 (%d)", cycles[4], cycles[1])
	}
	if cycles[16] > cycles[4] {
		t.Errorf("16 PEs (%d cycles) slower than 4 (%d)", cycles[16], cycles[4])
	}
}

// TestAMFraction measures the §2 claim on a compute-heavy block (E12):
// for application-shaped kernels — several defined values per element, as
// in the codes the authors analyzed — an eighth or less of the packet
// traffic touches the array memories. A shallow kernel, by contrast,
// spends a larger share on AM traffic.
func TestAMFraction(t *testing.T) {
	run := func(src string) float64 {
		t.Helper()
		compiled := compileVal(t, src)
		m := 40
		B := make([]float64, m+2)
		C := make([]float64, m+2)
		for i := range B {
			B[i] = 1 + float64(i%3)
			C[i] = math.Sin(float64(i))
		}
		if err := compiled.SetInputs(map[string][]value.Value{
			"B": value.Reals(B), "C": value.Reals(C),
		}); err != nil {
			t.Fatal(err)
		}
		res, err := Run(compiled.Graph, Config{PEs: 8, AMs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output("A")) != m+2 {
			t.Fatalf("A has %d elements", len(res.Output("A")))
		}
		return res.AMFraction()
	}
	const header = `
param m = 40;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;`
	deep := header + `
    Q : real := P*P + 0.5*P + 1.;
    S : real := Q*Q - P*Q + 2.*P;
  construct B[i]*(S*S) + Q
  endall;
output A;
`
	shallow := header + `
  construct B[i]*(P*P)
  endall;
output A;
`
	deepFrac, shallowFrac := run(deep), run(shallow)
	if deepFrac > 1.0/8 {
		t.Errorf("compute-heavy kernel AM fraction = %.3f, paper claims ≤ 1/8", deepFrac)
	}
	if shallowFrac <= deepFrac {
		t.Errorf("shallow kernel (%.3f) should spend a larger AM share than deep (%.3f)",
			shallowFrac, deepFrac)
	}
}

func TestButterflyDeliversEverything(t *testing.T) {
	b := newButterfly(6)
	seen := map[int]int{}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			b.send(&packet{kind: pktAck, src: src, dst: dst, cell: src*10 + dst})
		}
	}
	for i := 0; i < 200 && b.pending() > 0; i++ {
		for _, p := range b.step() {
			seen[p.cell]++
			if p.cell%10 != p.dst {
				t.Errorf("packet %d delivered to wrong endpoint", p.cell)
			}
		}
	}
	if b.pending() != 0 {
		t.Fatal("butterfly failed to drain")
	}
	if len(seen) != 36 {
		t.Errorf("delivered %d distinct packets, want 36", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("packet %d delivered %d times", id, n)
		}
	}
}

func TestCrossbarSerializesPerDestination(t *testing.T) {
	c := newCrossbar(4, 3)
	for i := 0; i < 5; i++ {
		c.send(&packet{kind: pktAck, src: 0, dst: 1, cell: i})
	}
	var times []int
	for cyc := 1; cyc <= 20; cyc++ {
		for range c.step() {
			times = append(times, cyc)
		}
	}
	if len(times) != 5 {
		t.Fatalf("delivered %d, want 5", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Errorf("two packets delivered to one endpoint in cycle %d", times[i])
		}
	}
	if times[0] < 3 {
		t.Errorf("first delivery at %d, expected ≥ delay 3", times[0])
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() *Result {
		g, _ := fig2(24)
		res, err := Run(g, Config{PEs: 3, AMs: 2, Network: Butterfly})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.TotalPackets != r2.TotalPackets {
		t.Errorf("runs differ: %d/%d cycles, %d/%d packets",
			r1.Cycles, r2.Cycles, r1.TotalPackets, r2.TotalPackets)
	}
}

func TestMachineGatedGraph(t *testing.T) {
	// Selection gates and merges work at packet level: select interior
	// elements and merge with a constant boundary.
	g := graph.New()
	n := 12
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	src := g.AddSource("C", value.Reals(vals))
	ctl := g.AddCtl("sel", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: n - 2, Suffix: []bool{false}})
	gate := g.Add(graph.OpTGate, "sel")
	sink := g.AddSink("out")
	g.Connect(ctl, gate, 0)
	g.Connect(src, gate, 1)
	g.Connect(gate, sink, 0)
	res, err := Run(g, Config{PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("out")
	if len(got) != n-2 {
		t.Fatalf("selected %d, want %d", len(got), n-2)
	}
	for i := range got {
		if got[i].AsReal() != float64(i+1) {
			t.Errorf("out[%d] = %v", i, got[i])
		}
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

func TestMachineLoopGraph(t *testing.T) {
	// A Todd-style accumulator runs correctly under packet semantics.
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
	add := g.Add(graph.OpAdd, "acc")
	merge := g.Add(graph.OpMerge, "m")
	g.Connect(g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, 0)
	g.Connect(a, add, 0)
	g.Connect(add, merge, 1)
	g.SetLiteral(merge, 2, value.I(0))
	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, gp)
	fb := g.ConnectGated(merge, gp, add, 1)
	fb.Feedback = true
	sink := g.AddSink("x")
	g.Connect(merge, sink, 0)

	res, err := Run(g, Config{PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("x")
	want := []int64{0, 1, 3, 6, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("x[%d] = %v, want %d", i, got[i], want[i])
		}
	}
}

func TestUtilizationAndDescribe(t *testing.T) {
	g, _ := fig2(32)
	res, err := Run(g, Config{PEs: 2, AMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v", u)
	}
	if s := Describe(res); s == "" {
		t.Error("Describe empty")
	}
}

func TestConfigStrings(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Random.String() != "random" || ByStage.String() != "by-stage" {
		t.Error("assignment strings")
	}
	if Crossbar.String() != "crossbar" || Butterfly.String() != "butterfly" {
		t.Error("network strings")
	}
}

func TestPacketConservation(t *testing.T) {
	g, _ := fig2(16)
	res, err := Run(g, Config{PEs: 4, AMs: 2, Network: Butterfly})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range res.Packets {
		sum += n
	}
	if sum != res.TotalPackets {
		t.Errorf("packet kinds sum %d != total %d", sum, res.TotalPackets)
	}
}

// TestFULatencyMatters: deeper function-unit pipelines stretch the ack
// round trip, slowing a latency-bound pipeline — the machine-level cost
// the paper's idealized two-instruction-time model abstracts away.
func TestFULatencyMatters(t *testing.T) {
	cyclesAt := func(mulLat int) int {
		g, _ := fig2(32)
		res, err := Run(g, Config{PEs: 4, AMs: 2, MulLatency: mulLat})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fast, slow := cyclesAt(1), cyclesAt(12)
	if slow <= fast {
		t.Errorf("12-cycle multipliers (%d cycles) not slower than 1-cycle (%d)", slow, fast)
	}
}

// TestMachineLoopGraphCompanion runs a companion-style 4-cell loop with two
// circulating values at packet level and checks the interleaved results.
func TestMachineLoopGraphCompanion(t *testing.T) {
	// x_i = x_{i-2} + a_i with seeds 100, 200: two independent running
	// sums interleaved through one loop.
	n := 10
	g := graph.New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}))
	add := g.Add(graph.OpAdd, "acc")
	pad := g.Add(graph.OpID, "pad")
	merge := g.Add(graph.OpMerge, "m")
	g.Connect(g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false, false}, Body: []bool{true}, Repeat: n}), merge, 0)
	seeds := g.AddSource("seeds", value.Ints([]int64{100, 200}))
	g.Connect(seeds, merge, 2)
	g.Connect(a, add, 0)
	g.Connect(add, pad, 0)
	g.Connect(pad, merge, 1).Marking = 2
	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: n, Suffix: []bool{false, false}}), merge, gp)
	g.ConnectGated(merge, gp, add, 1).Feedback = true
	g.Connect(merge, g.AddSink("x"), 0)

	res, err := Run(g, Config{PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output("x")
	want := []int64{100, 200, 101, 202, 104, 206, 109, 212, 116, 220, 125, 230}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].AsInt() != want[i] {
			t.Errorf("x[%d] = %v, want %d", i, got[i], want[i])
		}
	}
	if !res.Clean {
		t.Errorf("not clean: %v", res.Stalled)
	}
}

// TestSplitNetworks checks Fig 1's dual-fabric structure: separating
// operation packets from result/ack distribution never slows the machine,
// and results are unchanged.
func TestSplitNetworks(t *testing.T) {
	g1, want := fig2(48)
	single, err := Run(g1, Config{PEs: 2, AMs: 2, NetDelay: 3})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := fig2(48)
	split, err := Run(g2, Config{PEs: 2, AMs: 2, NetDelay: 3, SplitNetworks: true})
	if err != nil {
		t.Fatal(err)
	}
	if split.Cycles > single.Cycles {
		t.Errorf("split networks slower: %d vs %d cycles", split.Cycles, single.Cycles)
	}
	got := split.Output("out")
	for i := range want {
		if got[i].AsReal() != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !split.Clean {
		t.Errorf("split run not clean: %v", split.Stalled)
	}
}
