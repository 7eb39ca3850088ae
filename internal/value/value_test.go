package value

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Int: "integer", Real: "real", Bool: "boolean", Invalid: "invalid"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := I(42); v.Kind() != Int || v.AsInt() != 42 || !v.Valid() {
		t.Errorf("I(42) broken: %v", v)
	}
	if v := R(2.5); v.Kind() != Real || v.AsReal() != 2.5 {
		t.Errorf("R(2.5) broken: %v", v)
	}
	if v := B(true); v.Kind() != Bool || !v.AsBool() {
		t.Errorf("B(true) broken: %v", v)
	}
	var zero Value
	if zero.Valid() {
		t.Error("zero Value should be invalid")
	}
}

func TestIntPromotesToRealInAsReal(t *testing.T) {
	if I(3).AsReal() != 3.0 {
		t.Error("AsReal should promote Int")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { R(1).AsInt() },
		func() { B(true).AsReal() },
		func() { I(1).AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestArithmetic(t *testing.T) {
	if Add(I(2), I(3)).AsInt() != 5 {
		t.Error("int add")
	}
	if Add(I(2), R(3.5)).AsReal() != 5.5 {
		t.Error("mixed add should promote to real")
	}
	if Sub(R(2), R(3)).AsReal() != -1 {
		t.Error("real sub")
	}
	if Mul(I(4), I(5)).AsInt() != 20 {
		t.Error("int mul")
	}
	if Div(I(7), I(2)).AsInt() != 3 {
		t.Error("int div truncates")
	}
	if Div(R(1), R(4)).AsReal() != 0.25 {
		t.Error("real div")
	}
	if Neg(I(3)).AsInt() != -3 || Neg(R(2)).AsReal() != -2 {
		t.Error("neg")
	}
	if Abs(I(-3)).AsInt() != 3 || Abs(R(-2)).AsReal() != 2 || Abs(I(4)).AsInt() != 4 {
		t.Error("abs")
	}
	if Min(I(2), I(5)).AsInt() != 2 || Max(R(2), I(5)).AsReal() != 5 {
		t.Error("min/max")
	}
}

func TestDivByZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("integer division by zero should panic")
		}
	}()
	Div(I(1), I(0))
}

func TestRealDivByZeroIEEE(t *testing.T) {
	if !math.IsInf(Div(R(1), R(0)).AsReal(), 1) {
		t.Error("real division by zero should yield +Inf")
	}
}

func TestArithmeticTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("add of booleans should panic")
		}
	}()
	Add(B(true), B(false))
}

func TestRelational(t *testing.T) {
	if !LT(I(1), I(2)).AsBool() || LT(I(2), I(2)).AsBool() {
		t.Error("LT")
	}
	if !LE(I(2), I(2)).AsBool() || LE(I(3), I(2)).AsBool() {
		t.Error("LE")
	}
	if !GT(R(2.5), I(2)).AsBool() {
		t.Error("GT mixed")
	}
	if !GE(I(2), I(2)).AsBool() {
		t.Error("GE")
	}
	if !EQ(I(2), R(2)).AsBool() {
		t.Error("EQ mixed int/real")
	}
	if !NE(I(2), I(3)).AsBool() || NE(I(2), I(2)).AsBool() {
		t.Error("NE")
	}
	if !EQ(B(true), B(true)).AsBool() || EQ(B(true), B(false)).AsBool() {
		t.Error("EQ bool")
	}
}

func TestBooleanOps(t *testing.T) {
	if !And(B(true), B(true)).AsBool() || And(B(true), B(false)).AsBool() {
		t.Error("And")
	}
	if !Or(B(false), B(true)).AsBool() || Or(B(false), B(false)).AsBool() {
		t.Error("Or")
	}
	if !Not(B(false)).AsBool() || Not(B(true)).AsBool() {
		t.Error("Not")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{I(7), "7"}, {R(2.5), "2.5"}, {B(true), "true"}, {B(false), "false"}, {Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if c.v.String() != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v, c.v.String(), c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if !Equal(I(1), I(1)) || Equal(I(1), I(2)) || Equal(I(1), R(1)) {
		t.Error("Equal")
	}
	if !Equal(B(true), B(true)) || Equal(B(true), B(false)) {
		t.Error("Equal bool")
	}
	if !Equal(Value{}, Value{}) {
		t.Error("invalid values compare equal")
	}
}

func TestClose(t *testing.T) {
	if !Close(R(1), R(1+1e-13), 1e-9) {
		t.Error("Close should accept tiny relative error")
	}
	if Close(R(1), R(1.1), 1e-9) {
		t.Error("Close should reject large error")
	}
	if !Close(I(2), R(2+1e-13), 1e-9) {
		t.Error("Close should promote ints")
	}
	if Close(B(true), R(1), 1e-9) {
		t.Error("Close must not conflate bool and real")
	}
	if !Close(I(5), I(5), 0) || Close(I(5), I(6), 1) {
		t.Error("int Close is exact")
	}
}

func TestCloseSlices(t *testing.T) {
	a := Reals([]float64{1, 2, 3})
	b := Reals([]float64{1, 2, 3 + 1e-14})
	if !CloseSlices(a, b, 1e-9) {
		t.Error("CloseSlices should accept")
	}
	if CloseSlices(a, b[:2], 1e-9) {
		t.Error("length mismatch must fail")
	}
	b[1] = R(9)
	if CloseSlices(a, b, 1e-9) {
		t.Error("value mismatch must fail")
	}
}

func TestConversionHelpers(t *testing.T) {
	vs := Reals([]float64{1.5, 2.5})
	if len(vs) != 2 || vs[1].AsReal() != 2.5 {
		t.Error("Reals")
	}
	is := Ints([]int64{3, 4})
	if is[0].AsInt() != 3 {
		t.Error("Ints")
	}
	bs := Bools([]bool{true, false})
	if !bs[0].AsBool() || bs[1].AsBool() {
		t.Error("Bools")
	}
	fs := Floats(vs)
	if fs[0] != 1.5 {
		t.Error("Floats")
	}
}

// Property: arithmetic on Int values agrees with native int64 arithmetic.
func TestQuickIntArithmetic(t *testing.T) {
	f := func(a, b int64) bool {
		if Add(I(a), I(b)).AsInt() != a+b {
			return false
		}
		if Sub(I(a), I(b)).AsInt() != a-b {
			return false
		}
		if Mul(I(a), I(b)).AsInt() != a*b {
			return false
		}
		return LT(I(a), I(b)).AsBool() == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison trichotomy on reals (excluding NaN).
func TestQuickRealTrichotomy(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lt := LT(R(a), R(b)).AsBool()
		gt := GT(R(a), R(b)).AsBool()
		eq := EQ(R(a), R(b)).AsBool()
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Close is reflexive and symmetric.
func TestQuickCloseSymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if !Close(R(a), R(a), 0) {
			return false
		}
		return Close(R(a), R(b), 1e-9) == Close(R(b), R(a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cases := []Value{I(42), I(-7), R(2.5), R(-1e-9), B(true), B(false), {}}
	for _, v := range cases {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !Equal(v, back) {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestJSONErrors(t *testing.T) {
	bad := []string{
		`{"k":"int"}`, `{"k":"real"}`, `{"k":"bool"}`, `{"k":"martian"}`, `17`,
	}
	for _, s := range bad {
		var v Value
		if err := json.Unmarshal([]byte(s), &v); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

// Property: every valid value survives a JSON round trip exactly.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(i int64, r float64, b bool, pick uint8) bool {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return true // JSON cannot carry these; simulator never produces them from finite inputs
		}
		var v Value
		switch pick % 3 {
		case 0:
			v = I(i)
		case 1:
			v = R(r)
		default:
			v = B(b)
		}
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return Equal(v, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendJSONMatchesEncodingJSON pins the reflection-free writers to
// the bytes encoding/json writes: AppendJSONFloat to a float64's text
// across the bounds of its 'f' and 'e' forms, and AppendJSON to the
// tagged object as encoding/json marshals jsonValue.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []Value{I(0), I(-7), I(math.MinInt64), I(math.MaxInt64), B(true), B(false), {}}
	for _, f := range []float64{
		0, math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 1e-7, 1e-6, math.Nextafter(1e-6, 0),
		1e20, 1e21, math.Nextafter(1e21, 0), math.MaxFloat64, 0.1, 1.5, 123456789,
	} {
		vals = append(vals, R(f), R(-f))
	}
	for len(vals) < 3000 {
		switch f := math.Float64frombits(rng.Uint64()); {
		case math.IsNaN(f) || math.IsInf(f, 0):
		case rng.Intn(2) == 0:
			vals = append(vals, R(f))
		default:
			vals = append(vals, R((rng.Float64()*2-1)*math.Pow(10, float64(rng.Intn(61)-30))), I(int64(rng.Uint64())))
		}
	}
	for _, v := range vals {
		jv := jsonValue{}
		switch v.Kind() {
		case Int:
			i := v.AsInt()
			jv.Kind, jv.I = "int", &i
		case Real:
			r := v.AsReal()
			jv.Kind, jv.R = "real", &r
			want, err := json.Marshal(r)
			if got := AppendJSONFloat([]byte("x"), r); err != nil || string(got) != "x"+string(want) {
				t.Fatalf("AppendJSONFloat(%v) = %s, encoding/json writes %s (%v)", r, got[1:], want, err)
			}
		case Bool:
			b := v.AsBool()
			jv.Kind, jv.B = "bool", &b
		default:
			jv.Kind = "invalid"
		}
		want, err := json.Marshal(jv)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := v.AppendJSON([]byte("x")); err != nil || string(got) != "x"+string(want) {
			t.Fatalf("%v.AppendJSON = %s (%v), encoding/json writes %s", v, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := R(f).AppendJSON([]byte("x")); err == nil || string(got) != "x" {
			t.Errorf("R(%v).AppendJSON = %s, %v; want an error and dst unchanged", f, got, err)
		}
	}
}
