package analyze_test

import (
	"math"
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/trace/analyze"
	"staticpipe/internal/value"
)

// traced runs g under a metrics sink and analyzes the result.
func traced(t *testing.T, g *graph.Graph) (*analyze.Analysis, *trace.Metrics) {
	t.Helper()
	m := trace.NewMetrics()
	res, err := exec.Run(g, exec.Options{Tracer: m})
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyze.Analyze(res.Graph(), m)
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func ramp(n int) []value.Value {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return value.Reals(vals)
}

// A balanced linear pipeline runs at the architectural maximum: every cell
// achieves an inter-firing interval within one cycle of the predicted II=2.
func TestAnalyzeBalancedPipeline(t *testing.T) {
	g := graph.New()
	prev := g.AddSource("in", ramp(64))
	for s := 0; s < 5; s++ {
		id := g.Add(graph.OpID, "")
		g.Connect(prev, id, 0)
		prev = id
	}
	g.Connect(prev, g.AddSink("out"), 0)

	a, _ := traced(t, g)
	if got := a.Predicted.Float(); got != 2 {
		t.Fatalf("predicted II = %v, want 2", got)
	}
	for _, c := range a.Cells {
		if math.Abs(c.Achieved-2) > 1 {
			t.Errorf("cell %s achieved II=%.3f, want within 1 of 2", c.Name, c.Achieved)
		}
	}
	if len(a.Remarks) != 1 || !strings.Contains(a.Remarks[0], "fully pipelined") {
		t.Fatalf("verdict = %q, want fully pipelined", a.Remarks)
	}
}

// An unbalanced reconvergent pair of paths — two extra stages on one arm of
// an ADD — lowers the rate, and the analyzer must name cells on the long
// path as the critical cycle.
func TestAnalyzeUnbalancedNamesOffendingPath(t *testing.T) {
	g := graph.New()
	src := g.AddSource("in", ramp(64))
	id1 := g.Add(graph.OpID, "long1")
	id2 := g.Add(graph.OpID, "long2")
	add := g.Add(graph.OpAdd, "")
	g.Connect(src, id1, 0)
	g.Connect(id1, id2, 0)
	g.Connect(id2, add, 0)
	g.Connect(src, add, 1)
	g.Connect(add, g.AddSink("out"), 0)

	a, _ := traced(t, g)
	if got := a.Predicted.Float(); got <= 2 {
		t.Fatalf("predicted II = %v, want > 2 for the unbalanced graph", got)
	}
	if len(a.Critical) == 0 {
		t.Fatal("no critical cycle reported")
	}
	names := strings.Join(a.CriticalNames, " ")
	if !strings.Contains(names, "long1") && !strings.Contains(names, "long2") {
		t.Fatalf("critical cycle %q names no cell on the long path", names)
	}
	var found bool
	for _, r := range a.Remarks {
		if strings.Contains(r, "structural bottleneck") {
			found = true
		}
	}
	if !found {
		t.Fatalf("verdict %q does not call out the structural bottleneck", a.Remarks)
	}
	// The achieved rate must track the (elevated) prediction, not the
	// architectural maximum.
	for _, c := range a.Cells {
		if c.Sparse {
			continue
		}
		if math.Abs(c.Achieved-a.Predicted.Float()) > 1 {
			t.Errorf("cell %s achieved II=%.3f, predicted %.3f (want within 1)",
				c.Name, c.Achieved, a.Predicted.Float())
		}
	}
}

// Render produces the rate table and verdict without panicking on either
// shape of analysis.
func TestRender(t *testing.T) {
	g := graph.New()
	prev := g.AddSource("in", ramp(16))
	id := g.Add(graph.OpID, "")
	g.Connect(prev, id, 0)
	g.Connect(id, g.AddSink("out"), 0)
	a, _ := traced(t, g)
	out := a.Render(2)
	for _, want := range []string{"predicted", "verdict:", "cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}
