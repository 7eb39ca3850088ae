package pe

import (
	"slices"
	"testing"
)

// checkSet compares a static iteration set with its model, member[p]
// being whether position p is in it: the spans are non-empty, ascending,
// disjoint and non-adjacent, the count is right, and walking the spans
// visits exactly the members in ascending order.
func checkSet(t *testing.T, what string, s iterSet, member []bool) {
	t.Helper()
	if s.dynamic {
		t.Fatalf("%s: static set marked data-dependent", what)
	}
	var want, got []int64
	for p, in := range member {
		if in {
			want = append(want, int64(p))
		}
	}
	if c := s.count(); c != int64(len(want)) {
		t.Fatalf("%s: count %d, model has %d positions", what, c, len(want))
	}
	prevHi := int64(-1)
	for _, r := range s.spans {
		if r.lo >= r.hi || r.lo <= prevHi {
			t.Fatalf("%s: spans %v are not ascending, disjoint, non-adjacent and non-empty", what, s.spans)
		}
		prevHi = r.hi
		for p := r.lo; p < r.hi; p++ {
			got = append(got, p)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: walks %v, model holds %v", what, got, want)
	}
}

// FuzzSelection checks iteration sets against a []bool model. Each byte of
// data is one iteration position: bit k is the value there of the
// condition at nesting level k, and bit 7 makes the outermost condition
// unevaluable there. Starting from the full set of len(data) positions,
// each level splits the current set by its condition, checks the pattern
// and both arms, and descends into the arm bit k of path names.
func FuzzSelection(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 1, 0, 0, 1}, uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(1))
	f.Add([]byte{3, 2, 1, 0, 3, 3, 2, 0, 7, 5}, uint8(0x55))
	f.Add([]byte{1, 0, 1, 0x80}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, path uint8) {
		if !dynamicSet.dynamic {
			t.Fatal("dynamicSet is not marked data-dependent")
		}
		n := int64(len(data))
		set := fullSet(n)
		member := make([]bool, n)
		for p := range member {
			member[p] = true
		}
		checkSet(t, "full set", set, member)
		for level := 0; level < 7; level++ {
			bit := byte(1) << level
			unknown := func(p int64) bool { return level == 0 && data[p]&0x80 != 0 }
			pattern, then, els, ok := set.split(func(p int64) (bool, bool) {
				if unknown(p) {
					return false, false
				}
				return data[p]&bit != 0, true
			})

			wantOK := true
			var wantPattern []bool
			thenM, elseM := make([]bool, n), make([]bool, n)
			for p, in := range member {
				if !in {
					continue
				}
				if unknown(int64(p)) {
					wantOK = false
					break
				}
				v := data[p]&bit != 0
				wantPattern = append(wantPattern, v)
				thenM[p], elseM[p] = v, !v
			}
			if ok != wantOK {
				t.Fatalf("level %d: split ok = %v, want %v", level, ok, wantOK)
			}
			if !ok {
				return
			}
			if len(pattern) != len(wantPattern) || !slices.Equal(pattern, wantPattern) {
				t.Fatalf("level %d: pattern %v, want %v", level, pattern, wantPattern)
			}
			checkSet(t, "then arm", then, thenM)
			checkSet(t, "else arm", els, elseM)
			if path&(1<<level) != 0 {
				set, member = then, thenM
			} else {
				set, member = els, elseM
			}
		}
	})
}
