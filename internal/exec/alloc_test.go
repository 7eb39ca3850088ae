package exec_test

import (
	"runtime"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// TestRunAllocations pins what one run of Fig 2 at 4096 elements
// allocates on a warm Prepared, scalar and as a 16-lane batch with
// distinct lane inputs. Nearly all of it is the result's sink streams:
// each value and its arrival cycle are stored once, 16 + 8 bytes per
// element and lane.
func TestRunAllocations(t *testing.T) {
	fig2 := progs.Fig2(4096)
	art, err := core.CompileArtifact(fig2.Source, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := art.Compiled.BindInputs(fig2.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]map[string][]value.Value, 16)
	for l := 1; l < len(lanes); l++ {
		lanes[l] = map[string][]value.Value{}
		for name, vs := range base {
			lanes[l][name] = laneStream(vs, l)
		}
	}
	p, err := exec.Prepare(art.Compiled.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		opt      exec.Options
		maxBytes uint64
	}{
		{"scalar", exec.Options{Inputs: base}, 102 << 10},
		{"batch16", exec.Options{Inputs: base, LaneInputs: lanes, Batch: len(lanes)}, 1664 << 10},
	} {
		run := func() {
			if _, err := p.Run(c.opt); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 10
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per run", c.name, bytes)
		if bytes > c.maxBytes {
			t.Errorf("%s run of Fig 2 at 4096: %d bytes per run, want at most %d", c.name, bytes, c.maxBytes)
		}
	}
}
