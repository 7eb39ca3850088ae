package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChrome exports a span-tree snapshot as Chrome trace-event JSON (the
// same JSON-array flavour internal/trace.Chrome streams), loadable in
// chrome://tracing and Perfetto's legacy importer:
//
//   - one trace process (pid 0) per tree;
//   - the sequential phase spans (job, admission, queue.wait, run) share
//     thread 0 — they nest in time, so the viewer renders them as a flame;
//   - each lane span gets its own thread, since lanes overlap in wall
//     time;
//   - one trace tick (ts) is one microsecond, relative to the root start.
//
// Span attributes become the event's args.
func WriteChrome(w io.Writer, root *SpanJSON) error {
	if root == nil {
		return fmt.Errorf("obs: no span tree to export")
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	n := 0
	emit := func(line string) {
		if n > 0 {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
		}
		bw.WriteString(line)
		n++
	}
	emit(fmt.Sprintf(`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":%q}}`,
		root.Kind+" "+root.Name))
	base := root.Start
	root.Walk(func(s *SpanJSON) {
		tid := int64(0)
		if s.Kind == KindLane {
			tid = s.ID
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":%d,"args":{"name":%q}}`,
				tid, s.Name))
		}
		name := s.Kind
		if s.Name != "" {
			name = s.Kind + " " + s.Name
		}
		args := "{}"
		if len(s.Attrs) > 0 {
			if b, err := json.Marshal(s.Attrs); err == nil {
				args = string(b)
			}
		}
		ts := s.Start.Sub(base).Microseconds()
		dur := int64(s.DurSec * 1e6)
		if dur < 1 {
			dur = 1 // zero-width spans vanish in the viewer
		}
		emit(fmt.Sprintf(`{"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":%s}`,
			name, s.Kind, ts, dur, tid, args))
	})
	bw.WriteString("\n]\n")
	return bw.Flush()
}
