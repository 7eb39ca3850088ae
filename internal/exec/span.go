package exec

import (
	"context"
	"time"

	"staticpipe/internal/obs"
)

// annotateSpan records a finished run onto the span carried by ctx, if
// any. It runs strictly after the simulation loop has returned, reading
// only the immutable Result, so span recording is invisible to the
// engines: a run with a span attached is byte-identical to a detached
// one. Detached runs pay exactly one nil check.
func annotateSpan(ctx context.Context, res *Result, err error, workers, batch int) {
	sp := obs.SpanFrom(ctx)
	if sp == nil || res == nil {
		return
	}
	sp.Set("model", "exec")
	sp.Set("cycles", int64(res.Cycles))
	sp.Set("firings", sumFirings(res.Firings))
	sp.Set("clean", res.Clean)
	if batch > 1 {
		sp.Set("batch", int64(batch))
		if workers > 1 {
			sp.Set("workers", int64(workers))
		}
	}
	if res.Canceled {
		sp.Set("canceled", true)
	}
	if err != nil {
		sp.Set("error", err.Error())
	}
	if len(res.Stalled) > 0 {
		sp.Set("stalls", int64(len(res.Stalled)))
	}
	now := time.Now()
	for i := range res.Lanes {
		l := &res.Lanes[i]
		ch := sp.ChildAt(obs.KindLane, laneName(i), sp.StartTime(), now)
		ch.Set("cycles", int64(l.Cycles))
		ch.Set("firings", sumFirings(l.Firings))
		ch.Set("clean", l.Clean)
		if l.Canceled {
			ch.Set("canceled", true)
		}
		if len(l.Stalled) > 0 {
			ch.Set("stalls", int64(len(l.Stalled)))
		}
	}
}

func sumFirings(firings []int) int64 {
	var n int64
	for _, f := range firings {
		n += int64(f)
	}
	return n
}

func laneName(i int) string { return "lane[" + itoa(i) + "]" }

// itoa avoids pulling strconv into the hot package for the lane span label.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
