// Package value defines the scalar values that flow through static dataflow
// instruction graphs: integers, reals, and booleans, mirroring the scalar
// types of the Val subset used in Dennis & Gao, "Maximum Pipelining of Array
// Operations on Static Data Flow Machine" (CSG Memo 233).
//
// A Value is a small immutable tagged union. Arithmetic follows Val's rules
// for the subset: integer operators stay in the integer domain, real
// operators in the real domain, and mixed int/real arithmetic promotes to
// real (the paper's examples freely mix integer literals with real arrays).
//
// # Representation
//
// A Value is 16 bytes: a Kind and one 64-bit payload. The payload holds an
// Int's two's-complement bits, a Real's IEEE-754 bits (math.Float64bits),
// or 0/1 for a Bool. Simulators move one Value per token, so every arc
// slot, operand slot, packet value, input and sink stream and arrival
// record scales with this type's size.
//
// Equal, Close and EQ decode the payload and compare the decoded values;
// they never compare payload bits. The two differ only on reals: NaN is
// not equal to itself, and +0 equals −0, as in IEEE arithmetic and in Val.
// reflect.DeepEqual, by contrast, compares the payload bitwise, so two
// results from identical runs are deeply equal, while NaN tokens with the
// same bits compare equal and ±0 do not.
package value

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the scalar domains of the Val subset.
type Kind uint8

const (
	// Invalid is the zero Kind; operations on it panic. A zero Value is
	// deliberately unusable so that uninitialized operands are caught early.
	Invalid Kind = iota
	// Int is Val's integer type (index arithmetic, loop counters).
	Int
	// Real is Val's real type, modeled as float64.
	Real
	// Bool is Val's boolean type (gate and merge control values).
	Bool
)

// String returns the Val name of the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "integer"
	case Real:
		return "real"
	case Bool:
		return "boolean"
	default:
		return "invalid"
	}
}

// Value is a scalar datum carried by one result packet. The zero Value is
// invalid; construct values with I, R, and B.
type Value struct {
	kind Kind
	bits uint64 // the payload; see the package doc's Representation
}

// I returns an integer value.
func I(v int64) Value { return Value{kind: Int, bits: uint64(v)} }

// R returns a real value.
func R(v float64) Value { return Value{kind: Real, bits: math.Float64bits(v)} }

// B returns a boolean value.
func B(v bool) Value {
	if v {
		return Value{kind: Bool, bits: 1}
	}
	return Value{kind: Bool}
}

// i, r and b decode the payload without checking the kind.
func (v Value) i() int64   { return int64(v.bits) }
func (v Value) r() float64 { return math.Float64frombits(v.bits) }
func (v Value) b() bool    { return v.bits != 0 }

// Kind reports the value's scalar domain.
func (v Value) Kind() Kind { return v.kind }

// Valid reports whether the value has been initialized.
func (v Value) Valid() bool { return v.kind != Invalid }

// AsInt returns the integer payload; it panics if the value is not an Int.
func (v Value) AsInt() int64 {
	if v.kind != Int {
		panic(fmt.Sprintf("value: AsInt on %s value", v.kind))
	}
	return v.i()
}

// AsReal returns the real payload, converting an Int if necessary; it panics
// on booleans and invalid values.
func (v Value) AsReal() float64 {
	switch v.kind {
	case Real:
		return v.r()
	case Int:
		return float64(v.i())
	default:
		panic(fmt.Sprintf("value: AsReal on %s value", v.kind))
	}
}

// AsBool returns the boolean payload; it panics if the value is not a Bool.
func (v Value) AsBool() bool {
	if v.kind != Bool {
		panic(fmt.Sprintf("value: AsBool on %s value", v.kind))
	}
	return v.b()
}

// String renders the value in Val literal syntax.
func (v Value) String() string {
	switch v.kind {
	case Int:
		return fmt.Sprintf("%d", v.i())
	case Real:
		return fmt.Sprintf("%g", v.r())
	case Bool:
		if v.b() {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// numeric reports whether v is Int or Real.
func (v Value) numeric() bool { return v.kind == Int || v.kind == Real }

// binaryNumeric applies fi/fr after the usual promotion: Int op Int stays
// Int, otherwise both operands promote to Real. Callers on hot paths check
// the all-Real case inline first — the closure indirection here is
// measurable at simulator firing rates.
func binaryNumeric(a, b Value, op string, fi func(int64, int64) int64, fr func(float64, float64) float64) Value {
	if !a.numeric() || !b.numeric() {
		panic(fmt.Sprintf("value: %s on %s and %s", op, a.kind, b.kind))
	}
	if a.kind == Int && b.kind == Int {
		return I(fi(a.i(), b.i()))
	}
	return R(fr(a.AsReal(), b.AsReal()))
}

// Add returns a+b under Val promotion rules. The all-Real case is inline
// (simulator firing loops hit it once per token per lane); promotion and
// type errors live in the outlined slow path.
func Add(a, b Value) Value {
	if a.kind == Real && b.kind == Real {
		return R(a.r() + b.r())
	}
	return addSlow(a, b)
}

func addSlow(a, b Value) Value {
	return binaryNumeric(a, b, "add", func(x, y int64) int64 { return x + y }, func(x, y float64) float64 { return x + y })
}

// Sub returns a-b under Val promotion rules.
func Sub(a, b Value) Value {
	if a.kind == Real && b.kind == Real {
		return R(a.r() - b.r())
	}
	return subSlow(a, b)
}

func subSlow(a, b Value) Value {
	return binaryNumeric(a, b, "sub", func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
}

// Mul returns a*b under Val promotion rules.
func Mul(a, b Value) Value {
	if a.kind == Real && b.kind == Real {
		return R(a.r() * b.r())
	}
	return mulSlow(a, b)
}

func mulSlow(a, b Value) Value {
	return binaryNumeric(a, b, "mul", func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
}

// Div returns a/b. Integer division truncates toward zero as in Val;
// division by integer zero panics (the simulator treats it as a program
// error), while real division follows IEEE semantics.
func Div(a, b Value) Value {
	return binaryNumeric(a, b, "div",
		func(x, y int64) int64 {
			if y == 0 {
				panic("value: integer division by zero")
			}
			return x / y
		},
		func(x, y float64) float64 { return x / y })
}

// Neg returns the arithmetic negation of a numeric value.
func Neg(a Value) Value {
	switch a.kind {
	case Int:
		return I(-a.i())
	case Real:
		return R(-a.r())
	default:
		panic(fmt.Sprintf("value: neg on %s", a.kind))
	}
}

// Abs returns the absolute value of a numeric value.
func Abs(a Value) Value {
	switch a.kind {
	case Int:
		if a.i() < 0 {
			return I(-a.i())
		}
		return a
	case Real:
		return R(math.Abs(a.r()))
	default:
		panic(fmt.Sprintf("value: abs on %s", a.kind))
	}
}

// Min returns the smaller of two numeric values under Val promotion rules.
func Min(a, b Value) Value {
	return binaryNumeric(a, b, "min",
		func(x, y int64) int64 { return min(x, y) },
		func(x, y float64) float64 { return math.Min(x, y) })
}

// Max returns the larger of two numeric values under Val promotion rules.
func Max(a, b Value) Value {
	return binaryNumeric(a, b, "max",
		func(x, y int64) int64 { return max(x, y) },
		func(x, y float64) float64 { return math.Max(x, y) })
}

// compare returns -1, 0, or +1 comparing numeric values after promotion.
func compare(a, b Value, op string) int {
	if !a.numeric() || !b.numeric() {
		panic(fmt.Sprintf("value: %s on %s and %s", op, a.kind, b.kind))
	}
	if a.kind == Int && b.kind == Int {
		switch {
		case a.i() < b.i():
			return -1
		case a.i() > b.i():
			return 1
		default:
			return 0
		}
	}
	x, y := a.AsReal(), b.AsReal()
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// LT returns the boolean a < b.
func LT(a, b Value) Value { return B(compare(a, b, "lt") < 0) }

// LE returns the boolean a <= b.
func LE(a, b Value) Value { return B(compare(a, b, "le") <= 0) }

// GT returns the boolean a > b.
func GT(a, b Value) Value { return B(compare(a, b, "gt") > 0) }

// GE returns the boolean a >= b.
func GE(a, b Value) Value { return B(compare(a, b, "ge") >= 0) }

// EQ returns the boolean a = b. Booleans compare with booleans; numeric
// values compare after promotion.
func EQ(a, b Value) Value {
	if a.kind == Bool && b.kind == Bool {
		return B(a.b() == b.b())
	}
	return B(compare(a, b, "eq") == 0)
}

// NE returns the boolean a ≠ b.
func NE(a, b Value) Value {
	return B(!EQ(a, b).b())
}

// And returns the boolean conjunction.
func And(a, b Value) Value { return B(a.AsBool() && b.AsBool()) }

// Or returns the boolean disjunction.
func Or(a, b Value) Value { return B(a.AsBool() || b.AsBool()) }

// Not returns the boolean negation.
func Not(a Value) Value { return B(!a.AsBool()) }

// Equal reports exact equality of kind and decoded payload: reals compare
// as IEEE values (NaN is unequal to itself, +0 equals −0), not bitwise.
func Equal(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case Int, Bool:
		return a.bits == b.bits
	case Real:
		return a.r() == b.r()
	default:
		return true
	}
}

// Close reports whether two values are equal, comparing reals within a
// relative/absolute tolerance. Reassociated floating-point pipelines (the
// companion-function transformation reorders multiplies) produce values that
// differ in the last bits; Close is the comparison the test suite uses for
// cross-checking pipelined against sequential evaluation.
func Close(a, b Value, tol float64) bool {
	if a.kind == Bool || b.kind == Bool || a.kind == Invalid || b.kind == Invalid {
		return Equal(a, b)
	}
	if a.kind == Int && b.kind == Int {
		return a.bits == b.bits
	}
	x, y := a.AsReal(), b.AsReal()
	if x == y {
		return true
	}
	diff := math.Abs(x - y)
	scale := math.Max(math.Abs(x), math.Abs(y))
	return diff <= tol || diff <= tol*scale
}

// CloseSlices reports element-wise Close over two streams of equal length.
func CloseSlices(a, b []Value, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Close(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// Reals converts a float64 slice into a Real value stream.
func Reals(xs []float64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = R(x)
	}
	return out
}

// Ints converts an int64 slice into an Int value stream.
func Ints(xs []int64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = I(x)
	}
	return out
}

// Bools converts a bool slice into a Bool value stream.
func Bools(xs []bool) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = B(x)
	}
	return out
}

// Floats converts a Real/Int value stream back to float64s; it panics on
// booleans.
func Floats(vs []Value) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.AsReal()
	}
	return out
}

// jsonValue is the decoded form of the tagged object AppendJSON writes.
type jsonValue struct {
	Kind string   `json:"k"`
	I    *int64   `json:"i,omitempty"`
	R    *float64 `json:"r,omitempty"`
	B    *bool    `json:"b,omitempty"`
}

// AppendJSONFloat appends the text encoding/json writes for the finite
// float64 f, which reads back to the same bits: strconv's shortest 'f'
// form, or its 'e' form when |f| < 1e-6 or |f| ≥ 1e21 (f ≠ 0), with a
// one-digit negative exponent written e-7, not e-07.
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendJSON appends the value as a small tagged object that preserves
// its scalar domain exactly: {"k":"int","i":3}, {"k":"real","r":1.5},
// {"k":"bool","b":true} or {"k":"invalid"}. A non-finite real has no JSON
// form: it is an error, and dst comes back unchanged.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.kind {
	case Int:
		dst = strconv.AppendInt(append(dst, `{"k":"int","i":`...), v.i(), 10)
	case Real:
		r := v.r()
		if math.IsInf(r, 0) || math.IsNaN(r) {
			return dst, fmt.Errorf("value: real %v has no JSON form", r)
		}
		dst = AppendJSONFloat(append(dst, `{"k":"real","r":`...), r)
	case Bool:
		dst = strconv.AppendBool(append(dst, `{"k":"bool","b":`...), v.b())
	default:
		return append(dst, `{"k":"invalid"}`...), nil
	}
	return append(dst, '}'), nil
}

// MarshalJSON encodes the value in the tagged form AppendJSON writes.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(make([]byte, 0, 40)) }

// UnmarshalJSON decodes a value written by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	switch jv.Kind {
	case "int":
		if jv.I == nil {
			return fmt.Errorf("value: int payload missing")
		}
		*v = I(*jv.I)
	case "real":
		if jv.R == nil {
			return fmt.Errorf("value: real payload missing")
		}
		*v = R(*jv.R)
	case "bool":
		if jv.B == nil {
			return fmt.Errorf("value: bool payload missing")
		}
		*v = B(*jv.B)
	case "invalid":
		*v = Value{}
	default:
		return fmt.Errorf("value: unknown kind %q", jv.Kind)
	}
	return nil
}
