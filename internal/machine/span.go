package machine

import (
	"context"
	"fmt"
	"time"

	"staticpipe/internal/obs"
)

// annotateSpan records a finished machine run onto the span carried by
// ctx, if any. Mirrors exec's annotate path: it reads only the immutable
// Result after the cycle loop has returned, so span-attached and detached
// runs are byte-identical.
func annotateSpan(ctx context.Context, res *Result, err error, batch int) {
	sp := obs.SpanFrom(ctx)
	if sp == nil || res == nil {
		return
	}
	sp.Set("model", "machine")
	sp.Set("cycles", int64(res.Cycles))
	sp.Set("packets", int64(res.TotalPackets))
	sp.Set("clean", res.Clean)
	if batch > 1 {
		sp.Set("batch", int64(batch))
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
		ch := sp.ChildAt(obs.KindLane, fmt.Sprintf("lane[%d]", i), sp.StartTime(), now)
		ch.Set("cycles", int64(l.Cycles))
		ch.Set("packets", int64(l.TotalPackets))
		ch.Set("clean", l.Clean)
		if l.Canceled {
			ch.Set("canceled", true)
		}
		if len(l.Stalled) > 0 {
			ch.Set("stalls", int64(len(l.Stalled)))
		}
	}
}
