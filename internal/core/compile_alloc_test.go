package core

import (
	"runtime"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// allocBytes returns the fewest bytes one call of f allocated over three
// calls.
func allocBytes(f func()) uint64 {
	var least uint64
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; k == 0 || b < least {
			least = b
		}
	}
	return least
}

// heldPatterns and heldStreams keep heldBytes' copies reachable, so they
// are really allocated.
var (
	heldPatterns [][]bool
	heldStreams  [][]value.Value
)

// heldBytes returns what the allocator charges for the extent-sized parts
// of a compiled graph: its control patterns and its source cells' streams,
// measured by allocating slices of the same lengths.
func heldBytes(g *graph.Graph) uint64 {
	return allocBytes(func() {
		heldPatterns, heldStreams = heldPatterns[:0], heldStreams[:0]
		for _, n := range g.Nodes() {
			if p := n.Pattern; p != nil {
				heldPatterns = append(heldPatterns, make([]bool, len(p.Prefix)), make([]bool, len(p.Body)), make([]bool, len(p.Suffix)))
			}
			if len(n.Stream) > 0 {
				heldStreams = append(heldStreams, make([]value.Value, len(n.Stream)))
			}
		}
	})
}

// TestCompileBytesIndependentOfExtent checks that the compiler's own
// working set does not grow with the array extent: compiling each paper
// program at 8192 elements allocates no more than at 512, plus the growth
// of what the compiled graph must hold (one byte per control-pattern
// element, and the values of index and constant streams), plus 4 KiB.
func TestCompileBytesIndependentOfExtent(t *testing.T) {
	const slack = 4 << 10
	for _, mk := range []func(int) progs.Program{progs.Fig2, progs.Fig4, progs.Fig5,
		progs.Example1, progs.Example2, progs.Fig3, progs.Weather} {
		var compiled [2]uint64
		var held [2]uint64
		for k, n := range []int{512, 8192} {
			src := mk(n).Source
			var a *Artifact
			compiled[k] = allocBytes(func() {
				var err error
				if a, err = CompileArtifact(src, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			held[k] = heldBytes(a.Compiled.Graph)
		}
		name := mk(8).Name
		limit := compiled[0] + held[1] - held[0] + slack
		t.Logf("%s: %d bytes at 512, %d at 8192 (graph holds %d and %d), limit %d",
			name, compiled[0], compiled[1], held[0], held[1], limit)
		if compiled[1] > limit {
			t.Errorf("%s: compiling at 8192 elements allocates %d bytes, more than %d at 512 plus %d the graph holds beyond it plus %d",
				name, compiled[1], compiled[0], held[1]-held[0], slack)
		}
	}
}
