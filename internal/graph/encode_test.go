package graph

import (
	"fmt"
	"strings"
	"testing"

	"staticpipe/internal/value"
)

// buildLoopy builds a graph exercising every serialized feature: sources,
// sinks, control generators, FIFOs, literals, gated destinations with an
// extra gate port, initial tokens, feedback/rigid/skew/marking flags.
func buildLoopy() *Graph {
	g := New()
	a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
	add := g.Add(OpAdd, "acc")
	merge := g.Add(OpMerge, "m")
	g.Connect(g.AddCtl("mctl", Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, 0)
	g.Connect(a, add, 0)
	arc := g.Connect(add, merge, 1)
	arc.Skew = 2
	arc.Rigid = true
	g.SetLiteral(merge, 2, value.I(0))
	gp := g.AddGate(merge)
	g.Connect(g.AddCtl("fbctl", Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, gp)
	fb := g.ConnectGated(merge, gp, add, 1)
	fb.Feedback = true
	fb.Marking = 1
	g.SetInit(fb, value.I(7))
	f := g.AddFIFO("buf", 3)
	f.Buffer = true
	sink := g.AddSink("x")
	g.Connect(merge, f, 0)
	g.Connect(f, sink, 0)
	return g
}

func TestMarshalRoundTrip(t *testing.T) {
	g := buildLoopy()
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Structural equality via the textual listing and a re-marshal.
	if g.String() != g2.String() {
		t.Errorf("listing differs:\n%s\nvs\n%s", g, g2)
	}
	data2, err := g2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("re-marshal differs")
	}
	// Flags survive.
	var fb *Arc
	for _, a := range g2.Arcs() {
		if a.Feedback {
			fb = a
		}
	}
	if fb == nil || fb.Marking != 1 || fb.Init == nil || fb.Init.AsInt() != 7 || fb.Gate != 3 {
		t.Fatalf("feedback arc lost state: %+v", fb)
	}
	rigid := false
	for _, a := range g2.Arcs() {
		if a.Rigid && a.Skew == 2 {
			rigid = true
		}
	}
	if !rigid {
		t.Error("rigid/skew flags lost")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"garbage", "not json"},
		{"format", `{"format":"other/9","nodes":[],"arcs":[]}`},
		{"bad op", `{"format":"staticpipe-graph/1","nodes":[{"op":200,"ports":0}],"arcs":[]}`},
		{"short ports", `{"format":"staticpipe-graph/1","nodes":[{"op":3,"ports":1}],"arcs":[]}`},
		{"arc range", `{"format":"staticpipe-graph/1","nodes":[],"arcs":[{"from":0,"to":1,"port":0}]}`},
		{"bad literal port", `{"format":"staticpipe-graph/1","nodes":[{"op":1,"ports":1,"lits":{"4":{"k":"int","i":1}}}],"arcs":[]}`},
	}
	for _, c := range cases {
		if _, err := Unmarshal([]byte(c.data)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMarshalContainsFormat(t *testing.T) {
	g := buildLoopy()
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "staticpipe-graph/1") {
		t.Error("format marker missing")
	}
}

// TestCtlGenWithoutPattern: a control generator decoded without a pattern
// carries the empty pattern, and re-encodes exactly like one built from
// Pattern{}.
func TestCtlGenWithoutPattern(t *testing.T) {
	want := New()
	want.Connect(want.AddCtl("c", Pattern{}), want.AddSink("x"), 0)
	data := fmt.Sprintf(`{"format":%q,"nodes":[{"op":%d,"label":"c","ports":0},{"op":%d,"label":"x","ports":1}],"arcs":[{"from":0,"to":1,"port":0}]}`,
		fileFormat, OpCtlGen, OpSink)
	g, err := Unmarshal([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	p := g.Node(0).Pattern
	if p.Len() != 0 || len(p.Values()) != 0 || p.String() != "<>" {
		t.Errorf("decoded pattern %s has length %d, want the empty pattern", p, p.Len())
	}
	got, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Errorf("re-encoded as\n%s\nwant\n%s", got, ref)
	}
}
