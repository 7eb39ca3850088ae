package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"staticpipe/internal/value"
)

// oracleStream is the reflection codec Stream's one-pass codec replaced,
// kept verbatim as the reference the wire format is held to.
type oracleStream []value.Value

// MarshalJSON renders reals as bare numbers and ints/bools tagged.
func (s oracleStream) MarshalJSON() ([]byte, error) {
	out := make([]any, len(s))
	for i, v := range s {
		if v.Kind() == value.Real {
			out[i] = v.AsReal()
		} else {
			out[i] = v
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON accepts plain numbers (→ real), plain booleans, or the
// tagged exact form per element.
func (s *oracleStream) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make([]value.Value, len(raw))
	for i, r := range raw {
		var f float64
		if err := json.Unmarshal(r, &f); err == nil {
			out[i] = value.R(f)
			continue
		}
		var b bool
		if err := json.Unmarshal(r, &b); err == nil {
			out[i] = value.B(b)
			continue
		}
		if err := out[i].UnmarshalJSON(r); err != nil {
			return fmt.Errorf("stream element %d: %w", i, err)
		}
	}
	*s = out
	return nil
}

// wireInputs are hand-written wire inputs at the edges of the grammar.
var wireInputs = []string{
	`[]`, `[ ]`, "\t\n\r [ 1 ,\n-2.5e3\t,\rtrue , false ,{\"k\":\"int\",\"i\":3} ] \n",
	`null`, ` null `, `nul`, `nullx`, `[null]`, `[1,null,2]`, `[1, null ]`,
	`[1,]`, `[,1]`, `[1,,2]`, `[1 2]`, `[1]x`, `[1]]`, `[`, `[1`, `[1,`, ``, ` `, `{}`, `""`, `1`, `true`,
	`[0]`, `[-0]`, `[00]`, `[01]`, `[-01]`, `[1.]`, `[.5]`, `[-.5]`, `[+1]`, `[1e]`, `[1e+]`, `[1E-]`, `[-]`,
	`[1e400]`, `[-1e400]`, `[1e-400]`, `[1E5]`, `[-0.0e-0]`, `[0x10]`, `[1_000]`, `[Infinity]`, `[NaN]`,
	`[123456789012345678901234567890123456789]`, `[0.1000000000000000055511151231257827021181583404541015625]`,
	`[true,false]`, `[tru]`, `[True]`, `[truefalse]`, `[true1]`,
	`["NaN","+Inf","-Inf"]`, `[1,"NaN"]`, `["nan"]`, `["Inf"]`, `["inf"]`, `["NaN"]`, `["NaN" ]`, `["NaN"x]`, `["a"]`, `[""]`, `["1.5"]`,
	`[[1]]`, `[1,[2]]`, `[[]]`, `[{}]`,
	`[{"k":"int","i":3}]`, `[ {"k" : "int", "i" : -3} ]`, `[{"k":"int","i":3,"x":"a\"]},{"}]`,
	`[{"k":"bool","b":true},{"k":"invalid"}]`, `[{"k":"real","r":1.5},{"k":"real","r":1e400}]`,
	`[{"k":"real"}]`, `[{"k":"martian"}]`, `[{"K":"INT","I":7}]`, `[{"k":"int","i":1.5}]`,
	`[{]`, `[{"k":"int","i":3]`, `[{"k":"int","i":3}}]`, `[{"k":"int","i":3]}`, `[{"k":"int","i":3}`,
	`[{"k":"int","i":3,"x":[1,{"y":"}"}]}]`, "[{\"k\":\"int\",\"i\":3,\"x\":\"\xff\"}]", "[{\"k\":\"int\",\"i\":3,\"x\":\"\x01\"}]",
	`[{"k":"int","i":3,"x":"\q"}]`, `[{"k":"int","i":3,"x":"\\"}]`,
}

// randomStream draws n elements: reals across the bounds of encoding/json's
// float text (0, −0, subnormals, 1e-7, 1e-6, 1e20, 1e21, ±MaxFloat64 and
// exponents up to ±300), ints and booleans.
func randomStream(rng *rand.Rand, n int) Stream {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1),
		1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e20, 1e21, math.Nextafter(1e21, 0), math.MaxFloat64, 0.1, 1, 123456789,
	}
	s := make(Stream, n)
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			f := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				f = -f
			}
			s[i] = value.R(f)
		case 1:
			s[i] = value.R(math.Float64frombits(rng.Uint64() &^ (0x7ff << 52))) // subnormal
		case 2, 3:
			s[i] = value.R((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(601)-300)))
		case 4:
			s[i] = value.I(int64(rng.Uint64()))
		default:
			s[i] = value.B(rng.Intn(2) == 0)
		}
	}
	return s
}

// checkDecode holds Stream's decoder to the oracle's on one input: both
// fail, or both return bitwise-equal values. The only differences allowed
// are a null element (Stream refuses it; the oracle reads 0) and the
// strings "NaN", "+Inf" and "-Inf" (Stream reads non-finite reals; the
// oracle refuses them). It returns what Stream decoded, if anything.
func checkDecode(t *testing.T, data []byte) (Stream, bool) {
	t.Helper()
	var got Stream
	gotErr := got.UnmarshalJSON(data)
	var want oracleStream
	wantErr := want.UnmarshalJSON(data)
	switch {
	case gotErr != nil && wantErr != nil:
		return nil, false
	case gotErr == nil && wantErr == nil:
		if !reflect.DeepEqual(got, Stream(want)) {
			t.Fatalf("%q decodes to %v, the oracle to %v", data, got, want)
		}
		return got, true
	}
	// The decoders may disagree only on a JSON array that holds a null
	// element or a non-finite string; with those elements written 0, they
	// must agree.
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("%q: Stream error %v, oracle error %v, on input that is no JSON array", data, gotErr, wantErr)
	}
	isNonFinite := map[string]func(float64) bool{
		`"NaN"`:  math.IsNaN,
		`"+Inf"`: func(f float64) bool { return math.IsInf(f, 1) },
		`"-Inf"`: func(f float64) bool { return math.IsInf(f, -1) },
	}
	zeroed := make([]json.RawMessage, len(raw))
	var nulls, nonFinite []int
	for i, r := range raw {
		zeroed[i] = r
		if _, ok := isNonFinite[string(r)]; ok {
			nonFinite = append(nonFinite, i)
			zeroed[i] = json.RawMessage("0")
		} else if string(r) == "null" {
			nulls = append(nulls, i)
			zeroed[i] = json.RawMessage("0")
		}
	}
	data0, err := json.Marshal(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	var got0 Stream
	var want0 oracleStream
	if err, err0 := got0.UnmarshalJSON(data0), want0.UnmarshalJSON(data0); err != nil || err0 != nil || !reflect.DeepEqual(got0, Stream(want0)) {
		t.Fatalf("%q with its null and non-finite elements written 0: Stream reads %v (%v), the oracle %v (%v)", data, got0, err, want0, err0)
	}
	if gotErr != nil {
		if len(nulls) == 0 {
			t.Fatalf("%q: Stream refuses it (%v), the oracle reads %v", data, gotErr, want)
		}
		return nil, false
	}
	if len(nonFinite) == 0 {
		t.Fatalf("%q: Stream reads %v, the oracle refuses it (%v)", data, got, wantErr)
	}
	for _, i := range nonFinite {
		if got[i].Kind() != value.Real || !isNonFinite[string(raw[i])](got[i].AsReal()) {
			t.Fatalf("%q: element %d %s reads as %v", data, i, raw[i], got[i])
		}
		got0[i] = got[i]
	}
	if !sameStreams(got, got0) {
		t.Fatalf("%q decodes to %v, but to %v with its non-finite strings written 0", data, got, got0)
	}
	return got, true
}

// checkEncode holds Stream's encoder to the oracle's bytes on a stream
// of finite values.
func checkEncode(t *testing.T, s Stream) []byte {
	t.Helper()
	got, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleStream(s).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v encodes to\n%s\nthe oracle to\n%s", s, got, want)
	}
	return got
}

// finite reports whether the stream holds no NaN or infinite real.
func finite(s Stream) bool {
	for _, v := range s {
		if v.Kind() == value.Real && (math.IsNaN(v.AsReal()) || math.IsInf(v.AsReal(), 0)) {
			return false
		}
	}
	return true
}

// sameStreams compares two streams bit for bit, and any NaN with any NaN.
func sameStreams(a, b Stream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() == value.Real && b[i].Kind() == value.Real && math.IsNaN(a[i].AsReal()) && math.IsNaN(b[i].AsReal()) {
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamMatchesOracle holds the one-pass codec to the reflection codec
// it replaced: a finite stream encodes to the oracle's bytes, and on every
// input both decoders fail or both read bitwise-equal values, apart from
// the null element and the non-finite strings.
func TestStreamMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		s := randomStream(rng, rng.Intn(40))
		data := checkEncode(t, s)
		got, ok := checkDecode(t, data)
		if !ok || !reflect.DeepEqual(got, s) {
			t.Fatalf("%v encodes to %s, which decodes to %v", s, data, got)
		}
	}
	for _, in := range wireInputs {
		checkDecode(t, []byte(in))
	}
	// The non-finite reals round-trip through their strings.
	s := Stream{value.R(math.NaN()), value.R(math.Inf(1)), value.R(math.Inf(-1)), value.R(1)}
	data, err := json.Marshal(s)
	if err != nil || string(data) != `["NaN","+Inf","-Inf",1]` {
		t.Fatalf("non-finite reals encode to %s (%v)", data, err)
	}
	if back, ok := checkDecode(t, data); !ok || !sameStreams(back, s) {
		t.Fatalf("%s decodes to %v", data, back)
	}
	// A null element is refused and named by its index.
	var back Stream
	if err := back.UnmarshalJSON([]byte(`[1, null, 2]`)); err == nil || err.Error() != "stream element 1: null" {
		t.Fatalf("[1, null, 2]: error %v, want stream element 1: null", err)
	}
}

// FuzzStream runs TestStreamMatchesOracle's comparison on fuzzed bytes, and
// checks that every stream Stream accepts re-encodes and decodes back bit
// for bit.
func FuzzStream(f *testing.F) {
	for _, in := range wireInputs {
		f.Add([]byte(in))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data, err := randomStream(rng, 6).MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := checkDecode(t, data)
		if !ok {
			return
		}
		if finite(got) {
			checkEncode(t, got)
		}
		again, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Stream
		if err := back.UnmarshalJSON(again); err != nil || !sameStreams(back, got) {
			t.Fatalf("%q decodes to %v, which encodes to %s and decodes to %v (%v)", data, got, again, back, err)
		}
	})
}

// TestStreamCodecAllocations pins the codec's allocations on a 4096-element
// real stream: one result buffer each way, nothing per element.
func TestStreamCodecAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make(Stream, 4096)
	for i := range s {
		s[i] = value.R(rng.Float64()*1.8 - 0.9)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(20, func() {
		if _, err := s.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(20, func() {
		var back Stream
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 1 {
		t.Fatalf("4096 reals: %.0f allocations to encode and %.0f to decode, want at most 1 each", enc, dec)
	}
}
