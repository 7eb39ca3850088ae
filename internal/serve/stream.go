package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"

	"staticpipe/internal/value"
)

// Stream is one input or output value stream. On the wire it is a JSON
// array with one element per value:
//
//   - a finite real is a bare number, in the text encoding/json writes for
//     a float64, which reads back to the same bits;
//   - a non-finite real is one of the strings "NaN", "+Inf" and "-Inf";
//   - any other value takes value's tagged form, {"k":"int","i":3},
//     {"k":"bool","b":true} or {"k":"invalid"}.
//
// Input also takes bare true and false, and a real in the tagged form. A
// null element is refused; a null stream is an empty one. Both directions
// make one pass over the bytes, without reflection.
type Stream []value.Value

// The non-finite reals' spellings on the wire: strconv's, quoted.
var (
	nanText    = []byte(`"NaN"`)
	posInfText = []byte(`"+Inf"`)
	negInfText = []byte(`"-Inf"`)
)

// MarshalJSON writes the stream in one append loop.
func (s Stream) MarshalJSON() ([]byte, error) {
	// A full-precision real from (-1, 1) takes at most 21 bytes with its
	// comma, so one buffer holds the usual stream.
	out := make([]byte, 0, 2+24*len(s))
	out = append(out, '[')
	for i, v := range s {
		if i > 0 {
			out = append(out, ',')
		}
		if v.Kind() != value.Real {
			out, _ = v.AppendJSON(out) // only a real can lack a JSON form
			continue
		}
		switch f := v.AsReal(); {
		case math.IsNaN(f):
			out = append(out, nanText...)
		case math.IsInf(f, 1):
			out = append(out, posInfText...)
		case math.IsInf(f, -1):
			out = append(out, negInfText...)
		default:
			out = value.AppendJSONFloat(out, f)
		}
	}
	return append(out, ']'), nil
}

// UnmarshalJSON reads the stream in one scan over data. A number is
// checked against the JSON grammar and read by strconv.ParseFloat; a
// tagged object is decoded by value.UnmarshalJSON. An element's error
// names its index.
func (s *Stream) UnmarshalJSON(data []byte) error {
	p := skipSpace(data, 0)
	if bytes.HasPrefix(data[p:], []byte("null")) && skipSpace(data, p+4) == len(data) {
		*s = Stream{}
		return nil
	}
	if p == len(data) || data[p] != '[' {
		return errors.New("stream: not a JSON array")
	}
	// Every element but the last is followed by a comma and takes at
	// least one byte of its own, so this bounds the element count and
	// the result is allocated once.
	out := make(Stream, 0, min(bytes.Count(data, []byte{','}), len(data)/2)+1)
	p = skipSpace(data, p+1)
	if p < len(data) && data[p] == ']' {
		return s.end(out, data, p)
	}
	for {
		v, n, err := element(data[p:])
		if err != nil {
			return fmt.Errorf("stream element %d: %w", len(out), err)
		}
		out = append(out, v)
		p = skipSpace(data, p+n)
		switch {
		case p == len(data):
			return errors.New("stream: unexpected end of input")
		case data[p] == ']':
			return s.end(out, data, p)
		case data[p] != ',':
			return fmt.Errorf("stream: unexpected %q after element %d", data[p], len(out)-1)
		}
		p = skipSpace(data, p+1)
	}
}

// end stores out once the array's closing bracket at data[p] is the last
// thing in data but whitespace.
func (s *Stream) end(out Stream, data []byte, p int) error {
	if q := skipSpace(data, p+1); q != len(data) {
		return fmt.Errorf("stream: unexpected %q after the array", data[q])
	}
	*s = out
	return nil
}

// skipSpace returns the index of the first byte at or after p that is not
// JSON whitespace (RFC 8259 §2).
func skipSpace(data []byte, p int) int {
	for p < len(data) {
		switch data[p] {
		case ' ', '\t', '\n', '\r':
			p++
		default:
			return p
		}
	}
	return p
}

// element decodes the stream element at the start of b and returns it
// with the number of bytes it took.
func element(b []byte) (value.Value, int, error) {
	if len(b) == 0 {
		return value.Value{}, 0, errors.New("unexpected end of input")
	}
	switch c := b[0]; {
	case c == '-' || '0' <= c && c <= '9':
		n := numberLen(b)
		if n == 0 {
			return value.Value{}, 0, fmt.Errorf("invalid number %.32q", b)
		}
		f, err := strconv.ParseFloat(string(b[:n]), 64)
		if err != nil {
			return value.Value{}, 0, err
		}
		return value.R(f), n, nil
	case bytes.HasPrefix(b, []byte("true")):
		return value.B(true), 4, nil
	case bytes.HasPrefix(b, []byte("false")):
		return value.B(false), 5, nil
	case bytes.HasPrefix(b, []byte("null")):
		return value.Value{}, 0, errors.New("null")
	case bytes.HasPrefix(b, nanText):
		return value.R(math.NaN()), len(nanText), nil
	case bytes.HasPrefix(b, posInfText):
		return value.R(math.Inf(1)), len(posInfText), nil
	case bytes.HasPrefix(b, negInfText):
		return value.R(math.Inf(-1)), len(negInfText), nil
	case c == '{':
		n, err := objectLen(b)
		if err != nil {
			return value.Value{}, 0, err
		}
		var v value.Value
		if err := v.UnmarshalJSON(b[:n]); err != nil {
			return value.Value{}, 0, err
		}
		return v, n, nil
	}
	return value.Value{}, 0, fmt.Errorf("unexpected %q", b[0])
}

// numberLen returns the length of the JSON number (RFC 8259 §6) at the
// start of b, or 0 when b does not start with one.
func numberLen(b []byte) int {
	i := 0
	if b[0] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// objectLen returns the length of the JSON object at the start of b, up
// to the brace that closes it, skipping strings and the escapes in them.
// It checks only the nesting: value.UnmarshalJSON checks the rest.
func objectLen(b []byte) (int, error) {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, nil
			}
		}
	}
	return 0, errors.New("unterminated object")
}
