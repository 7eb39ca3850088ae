package core

import (
	"context"
	"strings"
	"testing"

	"staticpipe/internal/exec"
	"staticpipe/internal/progs"
)

// TestRunCanceledReturnsPartialResult pins the service-layer contract: a
// canceled Run hands back the partial RunResult (outputs produced so far,
// Exec.Canceled set) alongside the error, within one cancel cadence.
func TestRunCanceledReturnsPartialResult(t *testing.T) {
	p := progs.Fig2(4 * exec.CancelCadence)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u, err := CompileArtifact(p.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(Binding{Ctx: ctx}, p.Inputs)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error should name the cancellation, got: %v", err)
	}
	if res == nil {
		t.Fatal("expected partial RunResult alongside the error")
	}
	if res.Exec == nil || !res.Exec.Canceled {
		t.Fatal("partial result not marked Canceled")
	}
	if res.Exec.Cycles > exec.CancelCadence {
		t.Fatalf("pre-canceled run simulated %d cycles, want <= %d", res.Exec.Cycles, exec.CancelCadence)
	}
	out, ok := res.Outputs[p.Output]
	if !ok {
		t.Fatalf("partial result missing output %s", p.Output)
	}
	if len(out.Elems) >= 4*exec.CancelCadence {
		t.Fatalf("pre-canceled run produced the full output (%d elems)", len(out.Elems))
	}
}

// TestRunUncanceledContextIdentical pins zero perturbation at the core
// layer: attaching a never-firing context changes nothing observable.
func TestRunUncanceledContextIdentical(t *testing.T) {
	p := progs.Fig2(512)
	plain, err := CompileArtifact(p.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := plain.Run(Binding{}, p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := plain.Run(Binding{Ctx: context.Background()}, p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Exec.Cycles != cres.Exec.Cycles {
		t.Fatalf("cycles perturbed: %d vs %d", pres.Exec.Cycles, cres.Exec.Cycles)
	}
}
