package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"staticpipe/internal/buildinfo"
	"staticpipe/internal/trace"
)

// WriteMetrics renders every registered run's current snapshot in the
// Prometheus text exposition format (version 0.0.4). Each run contributes
// one consistent trace.Live snapshot, so counters within a run never tear
// even while the simulator goroutine is mid-cycle.
func WriteMetrics(w io.Writer, reg *Registry) {
	runs := reg.Runs()
	infos := make([]RunInfo, len(runs))
	snaps := make([]*trace.Metrics, len(runs))
	for i, r := range runs {
		infos[i] = r.Info()
		snaps[i] = r.live.Snapshot()
	}

	bi := buildinfo.Fields()
	var blabels []string
	for _, k := range buildinfo.Keys(bi) {
		blabels = append(blabels, lbl(k, bi[k]))
	}
	family(w, "staticpipe_build_info", "gauge", "Build metadata of the serving binary (value is always 1).")
	fmt.Fprintf(w, "staticpipe_build_info{%s} 1\n", strings.Join(blabels, ","))

	family(w, "staticpipe_run_info", "gauge", "One series per registered run; labels carry model and state (value is always 1).")
	for _, in := range infos {
		fmt.Fprintf(w, "staticpipe_run_info{%s,%s,%s} 1\n",
			lbl("run", in.Label), lbl("model", in.Model), lbl("state", string(in.State)))
	}

	family(w, "staticpipe_run_cycle", "gauge", "Most recently simulated cycle of the run.")
	for _, in := range infos {
		fmt.Fprintf(w, "staticpipe_run_cycle{%s} %d\n", lbl("run", in.Label), in.Cycle)
	}

	family(w, "staticpipe_run_arrivals_total", "counter", "Values received by the run's sinks so far.")
	for _, in := range infos {
		fmt.Fprintf(w, "staticpipe_run_arrivals_total{%s} %d\n", lbl("run", in.Label), in.Arrivals)
	}

	family(w, "staticpipe_run_cycles_per_sec", "gauge", "Simulation rate: cycles simulated per wall-clock second.")
	for _, in := range infos {
		fmt.Fprintf(w, "staticpipe_run_cycles_per_sec{%s} %s\n", lbl("run", in.Label), ftoa(in.CyclesPerSec))
	}

	family(w, "staticpipe_run_events_total", "counter", "Trace events aggregated by the run's metrics sink.")
	for i, in := range infos {
		fmt.Fprintf(w, "staticpipe_run_events_total{%s} %d\n", lbl("run", in.Label), snaps[i].Events)
	}

	family(w, "staticpipe_packets_total", "counter", "Packets routed, by traffic class (machine model).")
	for i, in := range infos {
		for k := trace.PacketKind(0); k < trace.NumPacketKinds; k++ {
			if n := snaps[i].Packets[k]; n > 0 {
				fmt.Fprintf(w, "staticpipe_packets_total{%s,%s} %d\n",
					lbl("run", in.Label), lbl("kind", k.String()), n)
			}
		}
	}

	family(w, "staticpipe_cell_firings_total", "counter", "Firings per instruction cell.")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for id := range snaps[i].Cells {
			if f := snaps[i].Cells[id].Firings; f > 0 {
				fmt.Fprintf(w, "staticpipe_cell_firings_total{%s,%s} %d\n",
					lbl("run", in.Label), lbl("cell", meta.CellName(id)), f)
			}
		}
	}

	family(w, "staticpipe_cell_stall_cycles_total", "counter", "Observed stall cycles per cell, by reason.")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for id := range snaps[i].Cells {
			c := &snaps[i].Cells[id]
			for _, s := range []struct {
				reason trace.Reason
				n      int64
			}{
				{trace.ReasonOperandWait, c.OperandWait},
				{trace.ReasonAckWait, c.AckWait},
				{trace.ReasonUnitBusy, c.UnitBusy},
			} {
				if s.n > 0 {
					fmt.Fprintf(w, "staticpipe_cell_stall_cycles_total{%s,%s,%s} %d\n",
						lbl("run", in.Label), lbl("cell", meta.CellName(id)), lbl("reason", s.reason.String()), s.n)
				}
			}
		}
	}

	family(w, "staticpipe_unit_firings_total", "counter", "Instructions retired per machine endpoint.")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for u := range snaps[i].Units {
			if n := snaps[i].Units[u].Firings; n > 0 {
				fmt.Fprintf(w, "staticpipe_unit_firings_total{%s,%s} %d\n",
					lbl("run", in.Label), lbl("unit", meta.UnitName(u)), n)
			}
		}
	}

	family(w, "staticpipe_fu_ops_total", "counter", "Operations initiated per function unit.")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for u := range snaps[i].Units {
			if n := snaps[i].Units[u].FUOps; n > 0 {
				fmt.Fprintf(w, "staticpipe_fu_ops_total{%s,%s} %d\n",
					lbl("run", in.Label), lbl("unit", meta.UnitName(u)), n)
			}
		}
	}

	family(w, "staticpipe_unit_occupancy", "gauge", "Fraction of cycles the endpoint retired an instruction (1.0 = saturated).")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for u := range snaps[i].Units {
			um := &snaps[i].Units[u]
			if um.Firings == 0 && um.FUOps == 0 && um.Delivered == 0 {
				continue
			}
			fmt.Fprintf(w, "staticpipe_unit_occupancy{%s,%s} %s\n",
				lbl("run", in.Label), lbl("unit", meta.UnitName(u)), ftoa(snaps[i].Occupancy(u)))
		}
	}

	// Per-lane families exist only for batched runs (-batch > 1);
	// scalar runs publish no series.
	type laneRow struct {
		run   string
		lanes []*trace.LaneCounters
	}
	var batched []laneRow
	for i, r := range runs {
		if l := r.prog.BatchLanes(); len(l) > 0 {
			batched = append(batched, laneRow{run: infos[i].Label, lanes: l})
		}
	}
	family(w, "staticpipe_batch_lanes", "gauge", "Configured lane count of the batched run.")
	for _, row := range batched {
		fmt.Fprintf(w, "staticpipe_batch_lanes{%s} %d\n", lbl("run", row.run), len(row.lanes))
	}
	family(w, "staticpipe_batch_lanes_active", "gauge", "Lanes still advancing (sources unexhausted or tokens in flight).")
	for _, row := range batched {
		active := 0
		for _, lc := range row.lanes {
			if lc.Done.Load() == 0 {
				active++
			}
		}
		fmt.Fprintf(w, "staticpipe_batch_lanes_active{%s} %d\n", lbl("run", row.run), active)
	}
	family(w, "staticpipe_batch_lane_cycles", "gauge", "Most recently simulated cycle of each lane.")
	for _, row := range batched {
		for li, lc := range row.lanes {
			fmt.Fprintf(w, "staticpipe_batch_lane_cycles{%s,%s} %d\n",
				lbl("run", row.run), lbl("lane", strconv.Itoa(li)), lc.Cycles.Load())
		}
	}
	family(w, "staticpipe_batch_lane_arrivals_total", "counter", "Values received by each lane's sinks so far.")
	for _, row := range batched {
		for li, lc := range row.lanes {
			fmt.Fprintf(w, "staticpipe_batch_lane_arrivals_total{%s,%s} %d\n",
				lbl("run", row.run), lbl("lane", strconv.Itoa(li)), lc.Arrivals.Load())
		}
	}
	family(w, "staticpipe_batch_progress_skew", "gauge", "Cycle spread between the fastest and slowest lane (0 = lockstep).")
	for _, row := range batched {
		min, max := int64(-1), int64(0)
		for _, lc := range row.lanes {
			c := lc.Cycles.Load()
			if min < 0 || c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		fmt.Fprintf(w, "staticpipe_batch_progress_skew{%s} %d\n", lbl("run", row.run), max-min)
	}

	family(w, "staticpipe_cell_interfiring_cycles", "histogram", "Inter-firing interval per cell, in cycles (log2 buckets).")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for id := range snaps[i].Cells {
			h := &snaps[i].Cells[id].Interval
			if h.Count == 0 {
				continue
			}
			writeHistogram(w, "staticpipe_cell_interfiring_cycles",
				lbl("run", in.Label)+","+lbl("cell", meta.CellName(id)), h)
		}
	}

	family(w, "staticpipe_unit_transit_cycles", "histogram", "Delivered-packet transit time per endpoint, queueing included (log2 buckets).")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for u := range snaps[i].Units {
			h := &snaps[i].Units[u].Transit
			if h.Count == 0 {
				continue
			}
			writeHistogram(w, "staticpipe_unit_transit_cycles",
				lbl("run", in.Label)+","+lbl("unit", meta.UnitName(u)), h)
		}
	}

	family(w, "staticpipe_fu_service_cycles", "histogram", "Function-unit service time (queue wait + pipeline latency) per FU (log2 buckets).")
	for i, in := range infos {
		meta := snaps[i].Meta()
		for u := range snaps[i].Units {
			h := &snaps[i].Units[u].Service
			if h.Count == 0 {
				continue
			}
			writeHistogram(w, "staticpipe_fu_service_cycles",
				lbl("run", in.Label)+","+lbl("unit", meta.UnitName(u)), h)
		}
	}
}

// family writes the HELP/TYPE header of one metric family.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one trace.Histogram as a Prometheus histogram:
// cumulative le-labeled buckets (leading empties and the all-full tail
// elided), then the mandatory +Inf bucket, _sum, and _count.
func writeHistogram(w io.Writer, name, labels string, h *trace.Histogram) {
	var cum int64
	for i := 0; i < trace.HistBuckets-1; i++ {
		cum += h.Buckets[i]
		if cum == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", name, labels, trace.BucketBound(i), cum)
		if cum == h.Count {
			break
		}
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.Count)
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, h.Sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
}

// lbl renders one key="value" pair with the value escaped per the text
// exposition format.
func lbl(key, value string) string { return key + `="` + escapeLabel(value) + `"` }

// escapeLabel escapes a label value per the text exposition format.
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

// ftoa renders a float sample value.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
