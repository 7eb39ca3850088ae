package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// TestCacheHitMatchesFreshCompile checks the cache's sharing contract on
// every testdata program: a second Get is a hit on the same *core.Artifact,
// and the hit validates, runs on the exec core, and runs on an 8-PE packet
// machine under a min-cost placement exactly as a fresh compile does.
func TestCacheHitMatchesFreshCompile(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.val"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	c := New(Config{})
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			compile := func() (*core.Artifact, error) { return core.CompileArtifact(src, core.Options{}) }
			key := KeyFor(src, core.Options{}, "", 0)
			first, out, err := c.Get(key, compile)
			if err != nil || out != Miss {
				t.Fatalf("first Get: %v, %v", out, err)
			}
			hit, out, err := c.Get(key, compile)
			if err != nil || out != Hit || hit != first {
				t.Fatalf("second Get: outcome %v, same artifact %v, err %v", out, hit == first, err)
			}
			// Run the first artifact before the comparison so the hit's runs
			// reuse its pooled run state, as a service's later jobs do.
			observe(t, first)
			fresh, err := compile()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := observe(t, hit), observe(t, fresh); got != want {
				t.Errorf("cache hit diverges from a fresh compile:\n--- hit ---\n%s\n--- fresh ---\n%s", got, want)
			}
		})
	}
}

// observe renders what runs of a show on ramp inputs: the validation
// verdict, an exec run's summary, outputs, arrivals and firings, and the
// summary and outputs of an 8-PE machine run under a min-cost placement.
func observe(t *testing.T, a *core.Artifact) string {
	t.Helper()
	inputs := map[string][]value.Value{}
	for _, in := range a.Checked.Inputs {
		inputs[in.Name] = progs.Synth("ramp", in.Len())
	}
	verdict := fmt.Sprint(a.Validate(inputs, 1e-9))
	res, err := a.Run(core.Binding{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := a.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Config{PEs: 8, FUs: 2, AMs: 2, Inputs: inputs}
	if err := place.Apply("mincost", mp.Table(), &cfg, nil); err != nil {
		t.Fatal(err)
	}
	mres, err := mp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := json.Marshal(struct {
		Exec, Machine   any
		Arrivals, Fired any
	}{res.Exec.Outputs, mres.Outputs, res.Exec.Arrivals, res.Exec.Firings})
	if err != nil {
		t.Fatal(err)
	}
	return verdict + "\n" + exec.Describe(res.Exec) + machine.Describe(mres) + string(runs)
}
