package val

import (
	"errors"
	"strings"
	"testing"
)

// posOf unwraps a *Error and returns its position, failing the test when
// the error is not positioned.
func posOf(t *testing.T, err error) Pos {
	t.Helper()
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("error is %T, want *val.Error: %v", err, err)
	}
	return e.P
}

func TestParseErrorPosition(t *testing.T) {
	src := "input C : array[real] [1, 8];\nA : array[real] := forall i in\noutput A;\n"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("parse succeeded on malformed forall")
	}
	p := posOf(t, err)
	if p.Line != 3 {
		t.Errorf("error at %s, want line 3 (the token that broke the forall header): %v", p, err)
	}
	if !strings.Contains(err.Error(), "val: 3:") {
		t.Errorf("rendered error lacks position prefix: %v", err)
	}
}

func TestLexErrorPosition(t *testing.T) {
	_, err := Parse("input C : array[real] [1, 8];\n  @\n")
	if err == nil {
		t.Fatal("lex succeeded on bad character")
	}
	if p := posOf(t, err); p.Line != 2 || p.Col != 3 {
		t.Errorf("error at %s, want 2:3: %v", p, err)
	}
}

func TestErrorExcerptCaret(t *testing.T) {
	src := "input C : array[real] [1, 8];\nA : array[real] := forall i in [1, 8] construct D[i] endall;\noutput A;\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("check succeeded with undefined array")
	}
	msg := err.Error()
	if !strings.Contains(msg, "undefined") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
	lines := strings.Split(msg, "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + excerpt + caret lines, got %q", msg)
	}
	if !strings.Contains(lines[1], "construct D[i]") {
		t.Errorf("excerpt line does not show the source: %q", lines[1])
	}
	caret := strings.IndexByte(lines[2], '^')
	if caret < 0 {
		t.Fatalf("no caret line: %q", lines[2])
	}
	// Both rendered lines carry a two-space margin, so the caret's index in
	// its line equals the column it points at in the excerpt line.
	if col := int(posOf(t, err).Col); caret != col+1 {
		t.Errorf("caret at index %d, want under column %d", caret, col)
	}
	if lines[1][caret] != 'D' {
		t.Errorf("caret points at %q, want 'D'", lines[1][caret])
	}
}

func TestEmptyProgramPositioned(t *testing.T) {
	_, err := Parse("   % just a comment\n")
	if err == nil {
		t.Fatal("empty program accepted")
	}
	if p := posOf(t, err); p.Line != 1 || p.Col != 1 {
		t.Errorf("error at %s, want 1:1: %v", p, err)
	}
}

func TestNoOutputsPositioned(t *testing.T) {
	src := "input C : array[real] [1, 8];\nA : array[real] := forall i in [1, 8] construct C[i] endall;\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("output-less program accepted")
	}
	if !strings.Contains(err.Error(), "declares no outputs") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
	if p := posOf(t, err); p.Line != 2 {
		t.Errorf("error at %s, want line 2 (last declaration): %v", p, err)
	}
}

func TestForallEmptyRangePositioned(t *testing.T) {
	src := "param m = 0;\ninput C : array[real] [1, 8];\nA : array[real] := forall i in [1, m] construct C[i] endall;\noutput A;\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("empty forall range accepted")
	}
	if !strings.Contains(err.Error(), "empty index range [1, 0]") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
	if p := posOf(t, err); p.Line != 3 {
		t.Errorf("error at %s, want line 3: %v", p, err)
	}
}

func TestInputEmptyRangePositioned(t *testing.T) {
	src := "input B : array[real] [1, 0];\nA : array[real] := forall i in [1, 8] construct 1. endall;\noutput A;\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("empty input range accepted")
	}
	if !strings.Contains(err.Error(), "empty range [1, 0]") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
	if p := posOf(t, err); p.Line != 1 {
		t.Errorf("error at %s, want line 1: %v", p, err)
	}
}

func TestExcerptTabAlignment(t *testing.T) {
	src := "input C : array[real] [1, 8];\n\tA : array[real] := forall i in [1, 8] construct D[i] endall;\noutput A;\n"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatal("check succeeded with undefined array")
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %q", err.Error())
	}
	// The pad must reuse the tab so the caret stays aligned in terminals.
	if !strings.Contains(lines[2], "\t") {
		t.Errorf("caret pad lost the tab: %q", lines[2])
	}
}
