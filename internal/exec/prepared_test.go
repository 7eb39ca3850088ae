package exec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// TestPreparedInputsOverride pins the input-immutability contract:
// Options.Inputs rebinds a source cell's stream for one run without
// touching the graph, so the same Prepared serves different inputs from
// different runs — the binding half of the artifact-cache contract.
func TestPreparedInputsOverride(t *testing.T) {
	g, want := fig2(16)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}

	base, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Output("out") {
		if v.AsReal() != want[i] {
			t.Fatalf("baseline out[%d] = %v, want %v", i, v, want[i])
		}
	}

	// Override stream a with all-ones; b keeps its compiled stream.
	ones := make([]float64, 16)
	bs := make([]float64, 16)
	for i := range ones {
		ones[i] = 1
		bs[i] = float64(2*i) - 3.25
	}
	over, err := p.Run(Options{Inputs: map[string][]value.Value{"a": value.Reals(ones)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range over.Output("out") {
		y := 1 * bs[i]
		if exp := (y + 2) * (y - 3); v.AsReal() != exp {
			t.Fatalf("override out[%d] = %v, want %v", i, v, exp)
		}
	}

	// The graph was not written: a plain run still sees the compiled
	// streams, byte for byte.
	again, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outputs, base.Outputs) || again.Cycles != base.Cycles {
		t.Fatal("override leaked into the shared graph: baseline run changed")
	}
}

// TestPreparedUnknownInputLabel pins the validation error: an override
// naming no source cell is a caller bug, refused before the run starts.
func TestPreparedUnknownInputLabel(t *testing.T) {
	g, _ := fig2(4)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(Options{Inputs: map[string][]value.Value{"nope": value.Reals([]float64{1})}})
	if err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
		t.Fatalf("err = %v, want unknown-label refusal", err)
	}

	// Two source cells sharing a label must not hide an unknown key.
	g = graph.New()
	add := g.Add(graph.OpAdd, "")
	g.Connect(g.AddSource("a", value.Ints([]int64{1})), add, 0)
	g.Connect(g.AddSource("a", value.Ints([]int64{2})), add, 1)
	g.Connect(add, g.AddSink("out"), 0)
	in := map[string][]value.Value{"a": value.Ints([]int64{3}), "nope": value.Ints([]int64{4})}
	for _, opt := range []Options{{Inputs: in}, {Inputs: in, Batch: 2}} {
		if _, err := Run(g, opt); err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
			t.Fatalf("shared labels, batch %d: err = %v, want unknown-label refusal", opt.Batch, err)
		}
	}
}

// TestPreparedPooledRunsIdentical pins the free-list pool: repeated and
// concurrent runs over one Prepared draw recycled scratch and must stay
// byte-identical to the first (cold-pool) run.
func TestPreparedPooledRunsIdentical(t *testing.T) {
	g, _ := fig2(32)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		res, err := p.Run(Options{})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles ||
			!reflect.DeepEqual(res.Firings, ref.Firings) {
			t.Fatalf("rep %d: pooled run diverged from cold run", rep)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(Options{})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles {
				errs <- fmt.Errorf("concurrent pooled run diverged from cold run")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
