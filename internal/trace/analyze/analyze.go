// Package analyze compares a traced run's achieved per-cell firing rates
// against the analytic maximum-cycle-ratio prediction and names the
// bottleneck: the unbalanced critical cycle (graph structure) or a
// saturated machine resource.
package analyze

import (
	"fmt"
	"sort"
	"strings"

	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/trace"
)

// CellRate is one cell's achieved-versus-predicted rate line.
type CellRate struct {
	ID       graph.NodeID
	Name     string
	Firings  int64
	Achieved float64 // mean inter-firing interval, cycles
	// P50 and P99 are inter-firing interval quantiles from the cell's
	// log-bucketed histogram. A p99 well above the mean reveals a pipeline
	// that mostly hits rate but takes periodic long stalls — invisible in
	// the mean alone.
	P50 float64
	P99 float64
	// Shortfall is Achieved minus the graph's predicted initiation
	// interval; a cell more than about one cycle short of the prediction
	// is held back by a machine resource rather than graph structure.
	Shortfall   float64
	OperandWait int64
	AckWait     int64
	UnitBusy    int64
	// Sparse marks a cell that fired far less often than the pipeline's
	// steady-state rate — a data-dependent conditional arm taken on few
	// iterations. Its interval is not a steady-state II, so it is listed
	// last and never drives the verdict.
	Sparse bool
}

// UnitRate is one machine endpoint's occupancy line.
type UnitRate struct {
	ID        int
	Name      string
	Occupancy float64 // instruction retirements (or FU initiations) per cycle
	Delivery  float64 // network-port deliveries per cycle
	Transit   float64 // mean delivered-packet transit, cycles
	// TransitP99 is the 99th-percentile delivered-packet transit time; a
	// tail far above the mean marks intermittent network contention.
	TransitP99 float64
	// ServiceP50 and ServiceP99 are function-unit service-time quantiles
	// (queue wait + pipeline latency); zero when the endpoint is not an FU.
	ServiceP50 float64
	ServiceP99 float64
}

// Analysis is the bottleneck report: the analytic rate bound, the critical
// cycle responsible for it, every cell's achieved rate, and the saturation
// state of the machine resources.
type Analysis struct {
	// Predicted is the maximum-cycle-ratio rate bound of the graph's
	// timing constraints (package mcm); 2 cycles/firing is the paper's
	// architectural maximum for a balanced graph.
	Predicted mcm.Result
	// Critical lists the cells of one cycle attaining the bound — for an
	// unbalanced reconvergent pair of paths this walks the long path
	// forward and returns along the short path's acknowledge edges, so it
	// names the cells responsible.
	Critical      []graph.NodeID
	CriticalNames []string
	// Cells holds achieved rates, worst shortfall first.
	Cells []CellRate
	// Units holds endpoint occupancies (machine runs only).
	Units []UnitRate
	// Remarks is the verdict: structural bottleneck (critical cycle),
	// resource bottleneck (saturated unit), or fully pipelined.
	Remarks []string
	// Severity grades the resource-contention component of the verdict
	// (structural bottlenecks are a property of the graph, not of the
	// machine, and do not contribute): SeverityResourceBound when a cell
	// falls more than a cycle short of the predicted rate, SeveritySaturated
	// when resources run at the saturation threshold but rate is held, and
	// SeverityNone when fully pipelined.
	Severity int
}

// Contention severity grades, worst first.
const (
	SeverityResourceBound = 2 // a cell misses the predicted rate (dominant stall named)
	SeveritySaturated     = 1 // saturated units, rate still held
	SeverityNone          = 0 // fully pipelined
)

// SeverityWord renders a severity grade for reports.
func SeverityWord(s int) string {
	switch s {
	case SeverityResourceBound:
		return "resource-bound"
	case SeveritySaturated:
		return "saturated"
	default:
		return "clean"
	}
}

// SaturationThreshold is the occupancy above which Analyze calls a machine
// resource saturated.
const SaturationThreshold = 0.95

// Analyze compares each cell's achieved inter-firing interval against the
// analytic prediction for g and names what limits the pipeline. The graph
// must be the FIFO-expanded graph the metrics were recorded against —
// exec.Result.Graph() or machine.Result.Graph().
func Analyze(g *graph.Graph, m *trace.Metrics) (*Analysis, error) {
	t, err := graph.Lower(g)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	pred, crit, err := mcm.Critical(t)
	if err != nil {
		return nil, fmt.Errorf("analyze: rate prediction failed: %w", err)
	}
	a := &Analysis{Predicted: pred, Critical: crit}
	for _, id := range crit {
		a.CriticalNames = append(a.CriticalNames, g.Node(id).Name())
	}
	target := pred.Float()
	var maxFirings int64
	for i := range m.Cells {
		if m.Cells[i].Firings > maxFirings {
			maxFirings = m.Cells[i].Firings
		}
	}
	for _, n := range g.Nodes() {
		if int(n.ID) >= len(m.Cells) {
			continue
		}
		c := &m.Cells[n.ID]
		if c.Firings < 2 {
			continue
		}
		a.Cells = append(a.Cells, CellRate{
			ID: n.ID, Name: n.Name(), Firings: c.Firings,
			Achieved: c.AchievedII(), Shortfall: c.AchievedII() - target,
			P50: c.Interval.Quantile(0.50), P99: c.Interval.Quantile(0.99),
			OperandWait: c.OperandWait, AckWait: c.AckWait, UnitBusy: c.UnitBusy,
			Sparse: c.Firings*4 < maxFirings,
		})
	}
	sort.Slice(a.Cells, func(i, j int) bool {
		if a.Cells[i].Sparse != a.Cells[j].Sparse {
			return !a.Cells[i].Sparse
		}
		if a.Cells[i].Shortfall != a.Cells[j].Shortfall {
			return a.Cells[i].Shortfall > a.Cells[j].Shortfall
		}
		return a.Cells[i].ID < a.Cells[j].ID
	})
	for u := range m.Units {
		um := &m.Units[u]
		if um.Firings == 0 && um.FUOps == 0 && um.Delivered == 0 {
			continue
		}
		a.Units = append(a.Units, UnitRate{
			ID: u, Name: m.Meta().UnitName(u),
			Occupancy: m.Occupancy(u), Delivery: m.DeliveryOccupancy(u), Transit: m.MeanTransit(u),
			TransitP99: um.Transit.Quantile(0.99),
			ServiceP50: um.Service.Quantile(0.50), ServiceP99: um.Service.Quantile(0.99),
		})
	}

	// Verdict.
	const maxRate = 2.0 // §3: one firing per two instruction times
	if pred.HasCycle && target > maxRate+1e-9 {
		a.Remarks = append(a.Remarks, fmt.Sprintf(
			"structural bottleneck: predicted %s exceeds the architectural maximum %.0f; critical cycle: %s",
			pred, maxRate, strings.Join(a.CriticalNames, " -> ")))
	}
	var saturated []string
	for _, u := range a.Units {
		switch {
		case u.Occupancy >= SaturationThreshold:
			saturated = append(saturated, fmt.Sprintf("%s instruction bandwidth (%.0f%% busy)", u.Name, 100*u.Occupancy))
		case u.Delivery >= SaturationThreshold:
			saturated = append(saturated, fmt.Sprintf("%s delivery port (%.0f deliveries per 100 cycles)", u.Name, 100*u.Delivery))
		}
	}
	if len(a.Cells) > 0 && !a.Cells[0].Sparse && a.Cells[0].Shortfall > 1.0 {
		worst := a.Cells[0]
		dominant := "operand-wait"
		if worst.AckWait > worst.OperandWait && worst.AckWait >= worst.UnitBusy {
			dominant = "ack-wait"
		} else if worst.UnitBusy > worst.OperandWait && worst.UnitBusy > worst.AckWait {
			dominant = "unit-busy"
		}
		r := fmt.Sprintf("resource bottleneck: %s achieves II=%.2f against predicted %.2f (dominant stall: %s)",
			worst.Name, worst.Achieved, target, dominant)
		if len(saturated) > 0 {
			r += "; saturated: " + strings.Join(saturated, ", ")
		}
		a.Remarks = append(a.Remarks, r)
		a.Severity = SeverityResourceBound
	} else if len(saturated) > 0 {
		a.Remarks = append(a.Remarks, "saturated resources: "+strings.Join(saturated, ", "))
		a.Severity = SeveritySaturated
	}
	if len(a.Remarks) == 0 {
		a.Remarks = append(a.Remarks,
			fmt.Sprintf("fully pipelined: every cell within 1 cycle of the predicted interval (%s)", pred))
	}
	return a, nil
}

// Render formats the report, listing at most top cells (0 = all).
func (a *Analysis) Render(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicted %s\n", a.Predicted)
	if len(a.CriticalNames) > 0 {
		fmt.Fprintf(&b, "critical cycle (%d cells): %s\n", len(a.CriticalNames), strings.Join(a.CriticalNames, " -> "))
	}
	if len(a.Units) > 0 {
		fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s %9s %9s\n",
			"unit", "busy", "deliver", "transit", "tr-p99", "svc-p50", "svc-p99")
		for _, u := range a.Units {
			fmt.Fprintf(&b, "%-8s %8.1f%% %8.1f%% %9.2f %9.2f %9.2f %9.2f\n",
				u.Name, 100*u.Occupancy, 100*u.Delivery, u.Transit, u.TransitP99, u.ServiceP50, u.ServiceP99)
		}
	}
	n := len(a.Cells)
	if top > 0 && top < n {
		n = top
	}
	if n > 0 {
		fmt.Fprintf(&b, "%-26s %8s %9s %7s %7s %10s %8s %8s %8s\n",
			"cell", "firings", "II", "p50", "p99", "shortfall", "op-wait", "ack-wait", "busy")
		for _, c := range a.Cells[:n] {
			mark := ""
			if c.Sparse {
				mark = " (sparse arm)"
			}
			fmt.Fprintf(&b, "%-26s %8d %9.3f %7.1f %7.1f %10.3f %8d %8d %8d%s\n",
				c.Name, c.Firings, c.Achieved, c.P50, c.P99, c.Shortfall, c.OperandWait, c.AckWait, c.UnitBusy, mark)
		}
		if n < len(a.Cells) {
			fmt.Fprintf(&b, "  ... %d more cells\n", len(a.Cells)-n)
		}
	}
	for _, r := range a.Remarks {
		fmt.Fprintf(&b, "verdict: %s\n", r)
	}
	return b.String()
}

// RenderDelta formats a before/after comparison of two analyses of the same
// program on the same machine shape — dftrace's re-placement report. Units
// are matched by name; the closing line grades the contention change by
// severity, breaking severity ties on the worst delivery occupancy (the
// unambiguous overload measure: local packets bypass the network, so a
// hot-spotted endpoint exceeds one delivery per cycle).
func RenderDelta(before, after *Analysis) string {
	var b strings.Builder
	if len(before.Units) > 0 || len(after.Units) > 0 {
		byName := map[string]UnitRate{}
		for _, u := range before.Units {
			byName[u.Name] = u
		}
		fmt.Fprintf(&b, "%-8s %17s %19s %17s\n", "unit", "busy", "deliver", "tr-p99")
		for _, u := range after.Units {
			prev := byName[u.Name]
			fmt.Fprintf(&b, "%-8s %7.1f%% > %6.1f%% %8.1f%% > %7.1f%% %7.2f > %7.2f\n",
				u.Name, 100*prev.Occupancy, 100*u.Occupancy,
				100*prev.Delivery, 100*u.Delivery,
				prev.TransitP99, u.TransitP99)
		}
	}
	for _, r := range before.Remarks {
		fmt.Fprintf(&b, "verdict before: %s\n", r)
	}
	for _, r := range after.Remarks {
		fmt.Fprintf(&b, "verdict after:  %s\n", r)
	}
	db, da := before.worstDelivery(), after.worstDelivery()
	word := "unchanged"
	switch {
	case after.Severity < before.Severity, after.Severity == before.Severity && da < db-1e-9:
		word = "improved"
	case after.Severity > before.Severity, after.Severity == before.Severity && da > db+1e-9:
		word = "worsened"
	}
	fmt.Fprintf(&b, "contention: %s (severity %s > %s; worst delivery %.2f > %.2f per cycle)\n",
		word, SeverityWord(before.Severity), SeverityWord(after.Severity), db, da)
	return b.String()
}

// worstDelivery returns the highest per-unit delivery occupancy.
func (a *Analysis) worstDelivery() float64 {
	worst := 0.0
	for _, u := range a.Units {
		if u.Delivery > worst {
			worst = u.Delivery
		}
	}
	return worst
}
