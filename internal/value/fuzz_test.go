package value

import (
	"encoding/json"
	"math"
	"testing"
)

// fuzzValue builds the Value a fuzzed (kind, int, float bits, bool) tuple
// names: kind%4 picks Invalid (the zero Value), Int, Real or Bool.
func fuzzValue(k uint8, i int64, f uint64, b bool) Value {
	switch Kind(k % 4) {
	case Int:
		return I(i)
	case Real:
		return R(math.Float64frombits(f))
	case Bool:
		return B(b)
	default:
		return Value{}
	}
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// sameBits reports whether two values have the same kind and, decoded, the
// same payload bit for bit (so NaN payloads and the sign of zero count).
func sameBits(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case Int:
		return a.AsInt() == b.AsInt()
	case Real:
		return math.Float64bits(a.AsReal()) == math.Float64bits(b.AsReal())
	case Bool:
		return a.AsBool() == b.AsBool()
	}
	return true
}

// FuzzValue checks the token encoding against Go's own arithmetic: the
// accessors return what the constructors stored, finite values round-trip
// through JSON bit for bit, and every operator computes what Go's
// operators (and math.Min, math.Max, math.Abs) compute on the decoded
// operands under Val promotion, panicking exactly where it must.
func FuzzValue(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	for _, bits := range []uint64{
		0, negZero, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), 1, 1 << 51, math.Float64bits(math.SmallestNonzeroFloat64) | 1<<63,
		math.Float64bits(2.5), math.Float64bits(-1e300),
	} {
		for k := uint8(0); k < 4; k++ {
			f.Add(k, int64(math.MinInt64), bits, true, uint8(2), int64(0), negZero, false)
			f.Add(uint8(2), int64(-7), bits, false, k, int64(math.MinInt64), bits, true)
		}
	}
	f.Add(uint8(1), int64(math.MinInt64), uint64(0), false, uint8(1), int64(-1), uint64(0), false)
	f.Add(uint8(1), int64(7), uint64(0), false, uint8(1), int64(0), uint64(0), false)
	f.Add(uint8(3), int64(0), uint64(0), true, uint8(3), int64(0), uint64(0), false)
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, ba bool, kb uint8, ib int64, fb uint64, bb bool) {
		a, b := fuzzValue(ka, ia, fa, ba), fuzzValue(kb, ib, fb, bb)

		// Accessors return what was stored, bit for bit.
		switch a.Kind() {
		case Int:
			if a.AsInt() != ia || a.AsReal() != float64(ia) {
				t.Fatalf("I(%d) reads back %d / %v", ia, a.AsInt(), a.AsReal())
			}
		case Real:
			if got := math.Float64bits(a.AsReal()); got != fa {
				t.Fatalf("R(bits %#x) reads back bits %#x", fa, got)
			}
		case Bool:
			if a.AsBool() != ba {
				t.Fatalf("B(%v) reads back %v", ba, a.AsBool())
			}
		}

		// Finite values round-trip through JSON; non-finite reals refuse.
		data, err := json.Marshal(a)
		if finite := a.Kind() != Real || !math.IsInf(a.AsReal(), 0) && !math.IsNaN(a.AsReal()); !finite {
			if err == nil {
				t.Fatalf("non-finite %v marshaled to %s", a, data)
			}
		} else {
			if err != nil {
				t.Fatalf("marshal %v: %v", a, err)
			}
			var back Value
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !sameBits(a, back) {
				t.Fatalf("%v round-tripped through %s to %v", a, data, back)
			}
		}

		numeric := func(v Value) bool { return v.Kind() == Int || v.Kind() == Real }
		bothInt := a.Kind() == Int && b.Kind() == Int
		var x, y float64
		if numeric(a) && numeric(b) {
			x, y = a.AsReal(), b.AsReal()
		}
		binary := []struct {
			name string
			op   func(Value, Value) Value
			i    func(int64, int64) int64
			r    func(float64, float64) float64
		}{
			{"Add", Add, func(p, q int64) int64 { return p + q }, func(p, q float64) float64 { return p + q }},
			{"Sub", Sub, func(p, q int64) int64 { return p - q }, func(p, q float64) float64 { return p - q }},
			{"Mul", Mul, func(p, q int64) int64 { return p * q }, func(p, q float64) float64 { return p * q }},
			{"Div", Div, func(p, q int64) int64 { return p / q }, func(p, q float64) float64 { return p / q }},
			{"Min", Min, func(p, q int64) int64 { return min(p, q) }, math.Min},
			{"Max", Max, func(p, q int64) int64 { return max(p, q) }, math.Max},
		}
		for _, o := range binary {
			var got Value
			panicked := panics(func() { got = o.op(a, b) })
			switch {
			case !numeric(a) || !numeric(b) || bothInt && o.name == "Div" && ib == 0:
				if !panicked {
					t.Fatalf("%s(%v, %v) = %v, want a panic", o.name, a, b, got)
				}
			case panicked:
				t.Fatalf("%s(%v, %v) panicked", o.name, a, b)
			case bothInt:
				if want := I(o.i(ia, ib)); !sameBits(got, want) {
					t.Fatalf("%s(%v, %v) = %v, want %v", o.name, a, b, got, want)
				}
			default:
				if want := R(o.r(x, y)); !sameBits(got, want) {
					t.Fatalf("%s(%v, %v) = %v, want %v", o.name, a, b, got, want)
				}
			}
		}

		unary := []struct {
			name string
			op   func(Value) Value
			i    func(int64) int64
			r    func(float64) float64
		}{
			{"Neg", Neg, func(p int64) int64 { return -p }, func(p float64) float64 { return -p }},
			{"Abs", Abs, func(p int64) int64 {
				if p < 0 {
					return -p
				}
				return p
			}, math.Abs},
		}
		for _, o := range unary {
			var got Value
			panicked := panics(func() { got = o.op(a) })
			var want Value
			switch a.Kind() {
			case Int:
				want = I(o.i(ia))
			case Real:
				want = R(o.r(a.AsReal()))
			default:
				if !panicked {
					t.Fatalf("%s(%v) = %v, want a panic", o.name, a, got)
				}
				continue
			}
			if panicked || !sameBits(got, want) {
				t.Fatalf("%s(%v) = %v (panicked %v), want %v", o.name, a, got, panicked, want)
			}
		}

		// The comparisons are three-way: x < y, x > y, or neither (which
		// NaN operands always are).
		var lt, gt bool
		switch {
		case bothInt:
			lt, gt = ia < ib, ia > ib
		default:
			lt, gt = x < y, x > y
		}
		cmps := []struct {
			name string
			op   func(Value, Value) Value
			want bool
		}{
			{"LT", LT, lt}, {"LE", LE, !gt}, {"GT", GT, gt}, {"GE", GE, !lt},
			{"EQ", EQ, !lt && !gt}, {"NE", NE, lt || gt},
		}
		bothBool := a.Kind() == Bool && b.Kind() == Bool
		for _, c := range cmps {
			var got Value
			panicked := panics(func() { got = c.op(a, b) })
			want := c.want
			switch {
			case bothBool && (c.name == "EQ" || c.name == "NE"):
				want = (ba == bb) == (c.name == "EQ")
			case !numeric(a) || !numeric(b):
				if !panicked {
					t.Fatalf("%s(%v, %v) = %v, want a panic", c.name, a, b, got)
				}
				continue
			}
			if panicked || !sameBits(got, B(want)) {
				t.Fatalf("%s(%v, %v) = %v (panicked %v), want %v", c.name, a, b, got, panicked, want)
			}
		}

		// Equal decodes: reals compare as IEEE values, not bitwise.
		wantEq := a.Kind() == b.Kind()
		switch {
		case !wantEq:
		case a.Kind() == Int:
			wantEq = ia == ib
		case a.Kind() == Real:
			wantEq = a.AsReal() == b.AsReal()
		case a.Kind() == Bool:
			wantEq = ba == bb
		}
		if Equal(a, b) != wantEq {
			t.Fatalf("Equal(%v, %v) = %v, want %v", a, b, Equal(a, b), wantEq)
		}
	})
}
