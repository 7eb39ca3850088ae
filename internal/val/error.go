package val

import (
	"fmt"
	"strings"
)

// Error is a positioned Val source error: every parse and check diagnostic
// carries the 1-based line:column it refers to and, when the source text is
// known, renders a source-line excerpt with a caret under the offending
// column.
type Error struct {
	// P is the error's source position (1-based line and column).
	P Pos
	// Msg is the diagnostic text, without position or "val:" prefix.
	Msg string
	// Src is the program source the position refers to; when non-empty the
	// rendered error includes the source line and a caret.
	Src string
}

// Error renders "val: line:col: msg", followed by the source excerpt when
// the source text is available.
func (e *Error) Error() string {
	s := fmt.Sprintf("val: %s: %s", e.P, e.Msg)
	if ex := excerpt(e.Src, e.P); ex != "" {
		s += "\n" + ex
	}
	return s
}

// Position returns the diagnostic's source position.
func (e *Error) Position() Pos { return e.P }

// excerpt renders the source line at p with a caret marking the column, or
// "" when the position falls outside the source.
func excerpt(src string, p Pos) string {
	if src == "" || p.Line < 1 || p.Col < 1 {
		return ""
	}
	lines := strings.Split(src, "\n")
	if int(p.Line) > len(lines) {
		return ""
	}
	line := strings.TrimRight(lines[p.Line-1], "\r")
	col := int(p.Col)
	if col > len(line)+1 {
		col = len(line) + 1
	}
	// Tabs stay tabs in the pad so the caret lines up under any tab width.
	var pad strings.Builder
	for _, c := range line[:col-1] {
		if c == '\t' {
			pad.WriteRune('\t')
		} else {
			pad.WriteByte(' ')
		}
	}
	return "  " + line + "\n  " + pad.String() + "^"
}

// attachSrc fills in the source text of positioned errors produced below a
// boundary that knows it (Parse, Check).
func attachSrc(err error, src string) error {
	if e, ok := err.(*Error); ok && e.Src == "" {
		e.Src = src
	}
	return err
}
