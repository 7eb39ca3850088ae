package graph_test

import (
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// TestCleanRunsBuildNoExpandedGraph pins that the expanded graph is a
// diagnostic: clean untraced runs of both cores read only the table, and
// the first run that needs names (a traced one) builds the one expansion
// both cores then share.
func TestCleanRunsBuildNoExpandedGraph(t *testing.T) {
	g := graph.New()
	src := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4}))
	f := g.AddFIFO("buf", 3)
	g.Connect(src, f, 0)
	g.Connect(f, g.AddSink("out"), 0)
	tab, err := graph.Lower(g)
	if err != nil {
		t.Fatal(err)
	}
	ep, mp := exec.PrepareTable(tab), machine.PrepareTable(tab)
	eres, err := ep.Run(exec.Options{})
	if err != nil || !eres.Clean {
		t.Fatalf("exec run: %v, clean %v", err, eres.Clean)
	}
	mres, err := mp.Run(machine.Config{Batch: 2})
	if err != nil || !mres.Clean {
		t.Fatalf("machine run: %v, clean %v", err, mres.Clean)
	}
	if graph.Expanded(tab) {
		t.Fatal("a clean untraced run built the expanded graph")
	}
	if _, err := mp.Run(machine.Config{Tracer: trace.NewMetrics()}); err != nil {
		t.Fatal(err)
	}
	if !graph.Expanded(tab) {
		t.Fatal("a traced run named its cells without the expanded graph")
	}
	if eres.Graph() != mres.Graph() || eres.Graph().NumNodes() != len(tab.Cells) {
		t.Fatal("the cores do not share one expanded graph")
	}
}
