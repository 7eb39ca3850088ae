package core

import (
	"strings"
	"testing"

	"staticpipe/internal/value"
)

// TestEmptyForallRange checks that a forall over an empty index range is a
// positioned compile error rather than a silent deadlock at run time.
func TestEmptyForallRange(t *testing.T) {
	src := `
input B : array[real] [0, 4];
A : array[real] := forall i in [5, 4] construct B[i-5] endall;
output A;
`
	_, err := CompileArtifact(src, Options{})
	if err == nil {
		t.Fatal("empty forall range compiled")
	}
	if !strings.Contains(err.Error(), "3:") || !strings.Contains(err.Error(), "empty index range [5, 4]") {
		t.Errorf("want positioned empty-range diagnostic, got: %v", err)
	}
}

// TestEmptyInputRange checks that a zero-length input array declaration is
// a positioned compile error.
func TestEmptyInputRange(t *testing.T) {
	src := `
input B : array[real] [1, 0];
A : array[real] := forall i in [1, 8] construct 1. endall;
output A;
`
	_, err := CompileArtifact(src, Options{})
	if err == nil {
		t.Fatal("empty input range compiled")
	}
	if !strings.Contains(err.Error(), "2:") || !strings.Contains(err.Error(), "empty range [1, 0]") {
		t.Errorf("want positioned empty-range diagnostic, got: %v", err)
	}
}

// TestEmptyRunInputs checks that binding zero-length input streams to a
// program expecting data is a clean length error, not a hang.
func TestEmptyRunInputs(t *testing.T) {
	u, err := CompileArtifact(fig3Src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.Run(Binding{}, map[string][]value.Value{"B": {}, "C": {}})
	if err == nil {
		t.Fatal("zero-length input streams accepted")
	}
	if !strings.Contains(err.Error(), "0 elements") {
		t.Errorf("want a length diagnostic, got: %v", err)
	}
}
