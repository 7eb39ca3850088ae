package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"staticpipe/internal/value"
)

// TestQuickRandomPrograms generates random pipe-structured programs —
// chains of forall and for-iter blocks over random primitive expressions —
// compiles each, and validates the compiled instruction graph element by
// element against the reference interpreter. This is the broadest property
// the reproduction can check: Theorems 1–4 composed on programs nobody
// hand-picked.
func TestQuickRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 30; trial++ {
		src, inputs := randomProgram(rng, 12+rng.Intn(8))
		u, err := CompileArtifact(src, Options{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		if err := u.Validate(inputs, 1e-6); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
	}
}

// arrayRange tracks a generated array's index range.
type arrayRange struct {
	name   string
	lo, hi int64
}

// randomProgram builds a random pipe-structured program over two input
// arrays of range [0, m+1] plus 2–4 derived blocks, outputting the last.
func randomProgram(rng *rand.Rand, m int) (string, map[string][]value.Value) {
	var b strings.Builder
	fmt.Fprintf(&b, "param m = %d;\n", m)
	inputs := map[string][]value.Value{}
	avail := []arrayRange{}
	for _, name := range []string{"U", "W"} {
		fmt.Fprintf(&b, "input %s : array[real] [0, m+1];\n", name)
		vals := make([]float64, m+2)
		for i := range vals {
			// bounded values keep products tame across chained blocks
			vals[i] = (rng.Float64() - 0.5) * 1.8
		}
		inputs[name] = value.Reals(vals)
		avail = append(avail, arrayRange{name, 0, int64(m) + 1})
	}

	blocks := 2 + rng.Intn(3)
	var last string
	for bi := 0; bi < blocks; bi++ {
		name := fmt.Sprintf("B%d", bi)
		// Primary source with a wide-enough range for ±1 offsets.
		var candidates []arrayRange
		for _, a := range avail {
			if a.hi-a.lo >= 4 {
				candidates = append(candidates, a)
			}
		}
		src := candidates[rng.Intn(len(candidates))]
		lo, hi := src.lo+1, src.hi-1

		if rng.Intn(3) == 0 {
			// for-iter block: a linear recurrence over two streams valid
			// on [lo, hi].
			a1 := pickCovering(rng, avail, lo, hi)
			a2 := pickCovering(rng, avail, lo, hi)
			fmt.Fprintf(&b, `%s : array[real] :=
  for i : integer := %d; T : array[real] := [%d: 0.]
  do
    let P : real := 0.5*%s[i]*T[i-1] + %s[i]
    in if i < %d then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
`, name, lo, lo-1, a1, a2, hi)
			avail = append(avail, arrayRange{name, lo - 1, hi})
		} else {
			// forall block over [lo, hi] with a random primitive body.
			body := randomBody(rng, src, avail, lo, hi, 0)
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [%d, %d]\n  construct %s\n  endall;\n",
				name, lo, hi, body)
			avail = append(avail, arrayRange{name, lo, hi})
		}
		last = name
	}
	fmt.Fprintf(&b, "output %s;\n", last)
	return b.String(), inputs
}

// pickCovering returns the name of an available array whose range covers
// [lo, hi].
func pickCovering(rng *rand.Rand, avail []arrayRange, lo, hi int64) string {
	var ok []string
	for _, a := range avail {
		if a.lo <= lo && a.hi >= hi {
			ok = append(ok, a.name)
		}
	}
	return ok[rng.Intn(len(ok))]
}

// randomBody emits a random primitive expression over the primary source
// (offsets −1..1) and zero-offset references to covering arrays.
func randomBody(rng *rand.Rand, primary arrayRange, avail []arrayRange, lo, hi int64, depth int) string {
	leaf := func() string {
		switch rng.Intn(4) {
		case 0:
			off := rng.Intn(3) - 1
			switch {
			case off < 0:
				return fmt.Sprintf("%s[i-1]", primary.name)
			case off > 0:
				return fmt.Sprintf("%s[i+1]", primary.name)
			default:
				return fmt.Sprintf("%s[i]", primary.name)
			}
		case 1:
			return pickCovering(rng, avail, lo, hi) + "[i]"
		case 2:
			return fmt.Sprintf("%.2f", rng.Float64()-0.5)
		default:
			return "i * 0.01"
		}
	}
	if depth >= 3 {
		return leaf()
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		op := []string{"+", "-", "*"}[rng.Intn(3)]
		return "(" + randomBody(rng, primary, avail, lo, hi, depth+1) + " " + op + " " +
			randomBody(rng, primary, avail, lo, hi, depth+1) + ")"
	case 3:
		cond := []string{
			fmt.Sprintf("i < %d", lo+(hi-lo)/2),
			fmt.Sprintf("%s[i] > 0.", primary.name),
			fmt.Sprintf("(i = %d) | (i = %d)", lo, hi),
		}[rng.Intn(3)]
		return "if " + cond + " then " + randomBody(rng, primary, avail, lo, hi, depth+1) +
			" else " + randomBody(rng, primary, avail, lo, hi, depth+1) + " endif"
	case 4:
		return "let v : real := " + randomBody(rng, primary, avail, lo, hi, depth+1) +
			" in (v * 0.5 + " + randomBody(rng, primary, avail, lo, hi, depth+1) + ") endlet"
	case 5:
		return "min(" + leaf() + ", max(" + leaf() + ", 0.))"
	default:
		return leaf()
	}
}
