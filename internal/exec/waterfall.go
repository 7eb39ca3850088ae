package exec

import (
	"fmt"
	"strings"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
)

// Waterfall simulates the graph and renders a firing chart: one row per
// cell, one column per cycle, '#' where the cell fired. It makes the
// paper's pipelining story visible at a glance — a fully pipelined graph
// shows every row firing on alternate columns, Todd's loop shows the
// 1-in-3 stutter, and an unbalanced graph shows ragged stalls.
//
// The chart is truncated to maxCols columns (0 = 120); rows appear in cell
// order. Use small stream lengths: this is a study tool, not a profiler.
func Waterfall(g *graph.Graph, opt Options, maxCols int) (string, error) {
	if maxCols <= 0 {
		maxCols = 120
	}
	// Every firing, sinks and discarding gates included, is one
	// KindFiring event; the caller's tracer still sees the whole stream.
	fired := firingLog{}
	inner := opt
	inner.Tracer = fired
	if opt.Tracer != nil {
		inner.Tracer = trace.Multi{fired, opt.Tracer}
	}
	res, err := Run(g, inner)
	if err != nil {
		return "", err
	}

	cols := res.Cycles
	truncated := false
	if cols > maxCols {
		cols = maxCols
		truncated = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycle     ")
	for c := 0; c < cols; c += 10 {
		fmt.Fprintf(&b, "%-10d", c)
	}
	b.WriteByte('\n')
	for _, n := range res.Graph.Nodes() {
		name := n.Name()
		if len(name) > 24 {
			name = name[:24]
		}
		fmt.Fprintf(&b, "%-24s |", name)
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, c := range fired[int32(n.ID)] {
			if c < cols {
				row[c] = '#'
			}
		}
		b.Write(row)
		b.WriteByte('|')
		if truncated {
			b.WriteString(" ...")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d cells, %d cycles", res.Graph.NumNodes(), res.Cycles)
	if truncated {
		fmt.Fprintf(&b, " (showing first %d)", cols)
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// firingLog records each cell's firing cycles from a run's KindFiring
// events, keyed by cell ID.
type firingLog map[int32][]int

// Start implements trace.Tracer.
func (firingLog) Start(trace.Meta) {}

// Emit implements trace.Tracer.
func (f firingLog) Emit(e trace.Event) {
	if e.Kind == trace.KindFiring {
		f[e.Cell] = append(f[e.Cell], int(e.Cycle))
	}
}
