package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteMetrics renders the staticpipe_serve_* Prometheus families in text
// exposition format. It is shaped to plug into telemetry.NewMux as an
// extra appender so the service's counters share the /metrics endpoint
// with the per-run simulation families.
func (s *Service) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()

	family(w, "staticpipe_serve_submitted_total", "counter",
		"Job submissions received, before any admission decision.")
	for _, t := range sortedKeys(s.submitted) {
		fmt.Fprintf(w, "staticpipe_serve_submitted_total{%s} %d\n", lbl("tenant", t), s.submitted[t])
	}

	family(w, "staticpipe_serve_admitted_total", "counter",
		"Jobs admitted, by admission path (fast=inline, offload=queued).")
	for _, k := range sortedPairKeys(s.admitted) {
		fmt.Fprintf(w, "staticpipe_serve_admitted_total{%s,%s} %d\n",
			lbl("tenant", k[0]), lbl("path", k[1]), s.admitted[k])
	}

	family(w, "staticpipe_serve_rejected_total", "counter",
		"Submissions rejected, by reason (invalid, throttled, queue_full, shutdown).")
	for _, k := range sortedPairKeys(s.rejected) {
		fmt.Fprintf(w, "staticpipe_serve_rejected_total{%s,%s} %d\n",
			lbl("tenant", k[0]), lbl("reason", k[1]), s.rejected[k])
	}

	family(w, "staticpipe_serve_jobs_completed_total", "counter",
		"Jobs reaching a terminal state, by state (done, failed, canceled).")
	for _, k := range sortedPairKeys(s.completed) {
		fmt.Fprintf(w, "staticpipe_serve_jobs_completed_total{%s,%s} %d\n",
			lbl("tenant", k[0]), lbl("state", k[1]), s.completed[k])
	}

	family(w, "staticpipe_serve_evicted_total", "counter",
		"Terminal jobs evicted from the bounded per-tenant result store.")
	for _, t := range sortedKeys(s.evicted) {
		fmt.Fprintf(w, "staticpipe_serve_evicted_total{%s} %d\n", lbl("tenant", t), s.evicted[t])
	}

	family(w, "staticpipe_serve_queue_depth", "gauge", "Jobs waiting in the offload queue.")
	fmt.Fprintf(w, "staticpipe_serve_queue_depth %d\n", len(s.queue))
	family(w, "staticpipe_serve_queue_capacity", "gauge", "Offload queue capacity.")
	fmt.Fprintf(w, "staticpipe_serve_queue_capacity %d\n", s.cfg.QueueDepth)
	family(w, "staticpipe_serve_workers", "gauge", "Worker-pool size.")
	fmt.Fprintf(w, "staticpipe_serve_workers %d\n", s.cfg.PoolWorkers)
	family(w, "staticpipe_serve_workers_busy", "gauge", "Pool workers executing a job.")
	fmt.Fprintf(w, "staticpipe_serve_workers_busy %d\n", s.poolBusy)
	family(w, "staticpipe_serve_jobs_running", "gauge",
		"Jobs executing now (pool workers plus inline fast-path runs).")
	fmt.Fprintf(w, "staticpipe_serve_jobs_running %d\n", s.running)
	family(w, "staticpipe_serve_jobs_tracked", "gauge",
		"Jobs in the result store (queued, running, and retained terminal).")
	fmt.Fprintf(w, "staticpipe_serve_jobs_tracked %d\n", len(s.jobs))
	family(w, "staticpipe_serve_offload_threshold", "gauge",
		"Admission cost threshold above which jobs are queued.")
	fmt.Fprintf(w, "staticpipe_serve_offload_threshold %d\n", s.cfg.OffloadThreshold)

	family(w, "staticpipe_serve_cost_ratio", "histogram",
		"Actual simulation work (cells x cycles, with the batch lane discount) over the admission estimate, per finished job.")
	cum := int64(0)
	for i, bound := range ratioBounds {
		cum += s.costRatio.counts[i]
		fmt.Fprintf(w, "staticpipe_serve_cost_ratio_bucket{le=%q} %d\n",
			strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "staticpipe_serve_cost_ratio_bucket{le=\"+Inf\"} %d\n", s.costRatio.count)
	fmt.Fprintf(w, "staticpipe_serve_cost_ratio_sum %g\n", s.costRatio.sum)
	fmt.Fprintf(w, "staticpipe_serve_cost_ratio_count %d\n", s.costRatio.count)

	// The artifact cache's counters are atomics; snapshotting them under
	// s.mu costs nothing and keeps the exposition point-in-time coherent.
	if c := s.cfg.Cache; c != nil {
		st := c.Stats()
		family(w, "staticpipe_cache_hits_total", "counter",
			"Artifact-cache lookups served from a resident compiled artifact.")
		fmt.Fprintf(w, "staticpipe_cache_hits_total %d\n", st.Hits)
		family(w, "staticpipe_cache_misses_total", "counter",
			"Artifact-cache lookups that compiled (one per singleflight group).")
		fmt.Fprintf(w, "staticpipe_cache_misses_total %d\n", st.Misses)
		family(w, "staticpipe_cache_coalesced_total", "counter",
			"Artifact-cache lookups that waited on another submission's in-flight compile.")
		fmt.Fprintf(w, "staticpipe_cache_coalesced_total %d\n", st.Coalesced)
		family(w, "staticpipe_cache_evictions_total", "counter",
			"Artifacts evicted under the entry or byte budget.")
		fmt.Fprintf(w, "staticpipe_cache_evictions_total %d\n", st.Evictions)
		family(w, "staticpipe_cache_entries", "gauge", "Resident compiled artifacts.")
		fmt.Fprintf(w, "staticpipe_cache_entries %d\n", st.Entries)
		family(w, "staticpipe_cache_bytes", "gauge",
			"Estimated resident footprint of cached artifacts.")
		fmt.Fprintf(w, "staticpipe_cache_bytes %d\n", st.Bytes)
		family(w, "staticpipe_cache_compile_seconds_saved_total", "counter",
			"Cumulative compile wall time hits and coalesced waiters did not pay.")
		fmt.Fprintf(w, "staticpipe_cache_compile_seconds_saved_total %g\n", st.CompileSaved.Seconds())
	}

	// SLO families ride the same exposition (nil-safe when no engine is
	// attached). The engine has its own lock; holding s.mu here is fine —
	// it never calls back into the service.
	s.cfg.SLO.WriteMetrics(w)
}

// Counters returns the per-tenant admission ledger (submitted, admitted,
// rejected totals) for reconciliation checks: for every tenant,
// submitted == admitted + rejected must hold at quiescence.
func (s *Service) Counters(tenant string) (submitted, admitted, rejected int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	submitted = s.submitted[tenant]
	for k, v := range s.admitted {
		if k[0] == tenant {
			admitted += v
		}
	}
	for k, v := range s.rejected {
		if k[0] == tenant {
			rejected += v
		}
	}
	return submitted, admitted, rejected
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedPairKeys(m map[[2]string]int64) [][2]string {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return keys
}

// family and lbl mirror the unexported telemetry/prom.go helpers: the text
// exposition format is small enough that sharing would couple the packages
// for two one-liners.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func lbl(key, value string) string { return key + `="` + escapeLabel(value) + `"` }

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
