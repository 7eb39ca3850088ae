package core

import (
	"flag"
	"math"
	"math/rand"
	"strings"
	"testing"

	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/val"
)

// theorem4Draws sizes TestTheorem4RandomPrograms: random programs per seed
// and stream length. The default keeps the tier-1 cost to a few seconds;
// the full sweep is `go test ./internal/core -run Theorem4 -args
// -theorem4.draws=150`.
var theorem4Draws = flag.Int("theorem4.draws", 8, "random programs per seed and stream length in TestTheorem4RandomPrograms")

// TestTheorem4RandomPrograms checks Theorem 4 as a property: a balanced
// pipe-structured program runs at the maximum rate, one result per two
// instruction times, at its declared output. A Todd-scheme loop caps the
// rate at one per three (§7), and it throttles everything it shares a
// weakly connected component with through acknowledge backpressure, so a
// program whose output component holds one must measure exactly 3.
//
// The stream lengths (m ≥ 256) keep the fill transient out of the
// measurement window. Programs with a conditional in a forall body are
// counted and logged, not asserted: about one in a hundred still misses
// the rate under the optimal balancer, a known fault (ROADMAP.md); assert
// them here too once it is fixed.
func TestTheorem4RandomPrograms(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"dedup", Options{Dedup: true}},
		{"naive", Options{NaiveBalance: true}},
		{"todd", Options{ForIterScheme: foriter.Todd}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			var checked, conditional, condMisses int
			worst := 0.0
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				for _, m := range []int{256, 512} {
					for d := 0; d < *theorem4Draws; d++ {
						src, inputs := randomProgram(rng, m)
						a, err := CompileArtifact(src, mode.opts)
						if err != nil {
							t.Fatalf("seed %d m=%d draw %d: compile: %v\n%s", seed, m, d, err, src)
						}
						res, err := a.Run(Binding{}, inputs)
						if err != nil {
							t.Fatalf("seed %d m=%d draw %d: run: %v\n%s", seed, m, d, err, src)
						}
						out := a.Checked.Outputs[0]
						want := theoremRate(a.Compiled.Graph, out)
						got := res.II(out)
						if forallHasIf(a.Checked) {
							conditional++
							if math.Abs(got-want) > 1e-9 {
								condMisses++
								worst = math.Max(worst, got)
							}
							continue
						}
						checked++
						if math.Abs(got-want) > 1e-9 {
							t.Errorf("seed %d m=%d draw %d: II %.4f at %s, theorem rate %v\n%s", seed, m, d, got, out, want, src)
						}
					}
				}
			}
			t.Logf("%d conditional-free programs checked; %d with forall conditionals, %d off the rate (worst II %.3f)",
				checked, conditional, condMisses, worst)
		})
	}
}

// theoremRate returns the initiation interval Theorem 4 gives at sink out:
// 3 when the sink's weakly connected component holds a Todd-scheme loop (a
// MERGE re-entered by an arc carrying one seed), 2 otherwise.
func theoremRate(g *graph.Graph, out string) float64 {
	parent := make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, a := range g.Arcs() {
		parent[find(int(a.From))] = find(int(a.To))
	}
	sink := -1
	for _, n := range g.Nodes() {
		if n.Op == graph.OpSink && n.Label == out {
			sink = find(int(n.ID))
		}
	}
	for _, a := range g.Arcs() {
		if a.Marking == 1 && find(int(a.To)) == sink {
			return 3
		}
	}
	return 2
}

// forallHasIf reports whether any forall block of the program contains a
// conditional expression.
func forallHasIf(c *val.Checked) bool {
	for _, b := range c.Blocks {
		if fa, ok := b.Expr.(*val.Forall); ok && strings.Contains(fa.String(), "if ") {
			return true
		}
	}
	return false
}
