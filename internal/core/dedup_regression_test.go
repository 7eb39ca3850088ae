package core

import (
	"strings"
	"testing"

	"staticpipe/internal/value"
)

// dedupStallSrc is the counterexample the differential pass harness found
// for dedup-without-balance (experiment E17's coupling, in program form):
// B0's for-iter loop and B1/B3's free-running forall regions share deduped
// generator and gate cells, and on the UNBALANCED graph that sharing
// couples the loop's fill transient into the foralls' acknowledge paths
// until the whole pipeline deadlocks — the run used to quiesce with zero
// outputs and dozens of stranded tokens.
const dedupStallSrc = `
param m = 7;
input U : array[real] [0, m+1];
input W : array[real] [0, m+1];
B0 : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := 0.5*W[i]*T[i-1] + U[i]
    in if i < 7 then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
B1 : array[real] :=
  forall i in [1, 6]
  construct ((i * 0.01 + let v : real := i * 0.01 in (v * 0.5 + B0[i]) endlet) + B0[i])
  endall;
B2 : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := 0.5*B0[i]*T[i-1] + W[i]
    in if i < 7 then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
  endlet
  endfor;
B3 : array[real] :=
  forall i in [1, 7]
  construct let v : real := if U[i] > 0. then i * 0.01 else (B0[i] + U[i-1]) endif in (v * 0.5 + (min(i * 0.01, max(-0.50, 0.)) * (-0.41 - U[i+1]))) endlet
  endall;
output B3;
`

func dedupStallInputs() map[string][]value.Value {
	us := make([]value.Value, 9)
	ws := make([]value.Value, 9)
	for i := range us {
		us[i] = value.R(0.3*float64(i%4) - 0.5)
		ws[i] = value.R(0.2*float64(i%5) - 0.4)
	}
	return map[string][]value.Value{"U": us, "W": ws}
}

// TestDedupWithoutBalanceNoLongerStalls pins the fix: a pipeline that ends
// with dedup gets a balancing pass appended by the pass manager (with a
// recorded warning), and the counterexample program runs to completion with
// the full reference output instead of deadlocking.
func TestDedupWithoutBalanceNoLongerStalls(t *testing.T) {
	inputs := dedupStallInputs()
	for _, passList := range []string{"dedup", "balance,dedup"} {
		u, err := CompileArtifact(dedupStallSrc, Options{Passes: passList})
		if err != nil {
			t.Fatalf("passes=%q: %v", passList, err)
		}
		stats := u.PassStats()
		if len(stats) == 0 || stats[len(stats)-1].Name != "balance" {
			t.Errorf("passes=%q: pipeline did not end in an appended balance: %v", passList, stats)
		}
		found := false
		for _, w := range u.Compiled.Warnings {
			if strings.Contains(w, "appended balance") {
				found = true
			}
		}
		if !found {
			t.Errorf("passes=%q: no auto-append warning recorded: %v", passList, u.Compiled.Warnings)
		}
		if !strings.Contains(u.Report(), "warning:") {
			t.Errorf("passes=%q: report does not surface the warning", passList)
		}
		if err := u.Validate(inputs, 1e-9); err != nil {
			t.Errorf("passes=%q: %v", passList, err)
		}
		res, err := u.Run(Binding{}, inputs)
		if err != nil {
			t.Fatalf("passes=%q: %v", passList, err)
		}
		if !res.Exec.Clean {
			t.Errorf("passes=%q: run did not drain: %v", passList, res.Exec.Stalled)
		}
	}

}

// TestDedupBalancedPipelineHasNoWarning checks the auto-append does not
// fire when the user's pipeline already balances after dedup.
func TestDedupBalancedPipelineHasNoWarning(t *testing.T) {
	u, err := CompileArtifact(dedupStallSrc, Options{Passes: "dedup,balance"})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Compiled.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", u.Compiled.Warnings)
	}
	stats := u.PassStats()
	if len(stats) != 2 {
		t.Errorf("pipeline grew unexpectedly: %v", stats)
	}
}
