package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"staticpipe/internal/telemetry"
)

// The SLO engine evaluates declarative objectives over sliding windows of
// good/bad observations and raises multi-window burn-rate alerts — the
// standard SRE construction: an objective "99% of jobs wait less than
// 500ms in the queue" has an error budget of 1%, and the burn rate over a
// window is the observed bad fraction divided by that budget. A burn rate
// of 1 spends the budget exactly at the sustainable pace; an alert fires
// only when BOTH a fast and a slow window burn above the threshold, so a
// single bad event cannot flap the alert while a sustained degradation
// trips it within the fast window.
//
// Percentile objectives reduce to the same machinery: "queue-wait p99 ≤
// 500ms" holds exactly when ≥99% of waits are ≤ 500ms, so the caller
// classifies each wait against the threshold and the target carries the
// percentile.

// SLODef declares one objective. Zero windows/threshold pick defaults.
type SLODef struct {
	// Name labels the objective in metrics and verdicts ("queue_wait").
	Name string
	// Help is the metric HELP text and verdict description.
	Help string
	// Target is the required good fraction, e.g. 0.99; the error budget
	// is 1 - Target.
	Target float64
	// FastWindow and SlowWindow are the two sliding evaluation windows
	// (defaults 1m and 5m). The fast window makes the alert responsive,
	// the slow window makes it sticky against single-event noise.
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold is the burn rate both windows must exceed to alert
	// (default 2: the budget is being spent at twice the sustainable
	// pace).
	BurnThreshold float64
	// MinEvents is the fewest fast-window observations required before
	// the objective can alert (default 4), so the first bad event of a
	// quiet service does not trip a 100% burn rate.
	MinEvents int
}

func (d SLODef) withDefaults() SLODef {
	if d.FastWindow <= 0 {
		d.FastWindow = time.Minute
	}
	if d.SlowWindow <= 0 {
		d.SlowWindow = 5 * time.Minute
	}
	if d.SlowWindow < d.FastWindow {
		d.SlowWindow = d.FastWindow
	}
	if d.BurnThreshold <= 0 {
		d.BurnThreshold = 2
	}
	if d.MinEvents <= 0 {
		d.MinEvents = 4
	}
	return d
}

// sloEvent is one timestamped observation.
type sloEvent struct {
	t    time.Time
	good bool
}

// sloState is one objective's sliding window plus lifetime totals.
type sloState struct {
	def    SLODef
	events []sloEvent // time-ordered; pruned to SlowWindow on observe/eval
	good   int64      // lifetime totals, for the _total counters
	bad    int64
}

// SLOEngine evaluates a set of objectives. All methods are safe for
// concurrent use and nil-safe, so recording code never branches on whether
// SLO tracking is attached.
type SLOEngine struct {
	mu    sync.Mutex
	now   func() time.Time // injectable for tests
	order []string
	slos  map[string]*sloState
}

// NewSLOEngine builds an engine from the given objectives.
func NewSLOEngine(defs ...SLODef) *SLOEngine {
	e := &SLOEngine{now: time.Now, slos: map[string]*sloState{}}
	for _, d := range defs {
		d = d.withDefaults()
		if _, dup := e.slos[d.Name]; dup {
			continue
		}
		e.order = append(e.order, d.Name)
		e.slos[d.Name] = &sloState{def: d}
	}
	return e
}

// SetClock overrides the engine's time source (tests). Returns e.
func (e *SLOEngine) SetClock(now func() time.Time) *SLOEngine {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = now
	return e
}

// Observe records one good/bad event for the named objective; unknown
// names and nil engines are no-ops.
func (e *SLOEngine) Observe(name string, good bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.slos[name]
	if s == nil {
		return
	}
	now := e.now()
	s.events = append(s.events, sloEvent{t: now, good: good})
	if good {
		s.good++
	} else {
		s.bad++
	}
	s.prune(now)
}

// prune drops events older than the slow window.
func (s *sloState) prune(now time.Time) {
	cut := now.Add(-s.def.SlowWindow)
	i := 0
	for i < len(s.events) && s.events[i].t.Before(cut) {
		i++
	}
	if i > 0 {
		s.events = append(s.events[:0], s.events[i:]...)
	}
}

// SLOStatus is one objective's evaluated state.
type SLOStatus struct {
	Name   string  `json:"name"`
	Target float64 `json:"target"`
	// FastSLI/SlowSLI are the good fractions over each window (1.0 when
	// the window is empty: no traffic is not an SLO violation).
	FastSLI float64 `json:"fast_sli"`
	SlowSLI float64 `json:"slow_sli"`
	// FastBurn/SlowBurn are the burn rates: bad fraction over the error
	// budget.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// FastEvents counts fast-window observations (the MinEvents gate).
	FastEvents int `json:"fast_events"`
	// Burning is the multi-window alert state.
	Burning bool `json:"burning"`
	// GoodTotal/BadTotal are lifetime counts.
	GoodTotal int64 `json:"good_total"`
	BadTotal  int64 `json:"bad_total"`
}

// Evaluate returns every objective's current status in declaration order.
func (e *SLOEngine) Evaluate() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]SLOStatus, 0, len(e.order))
	for _, name := range e.order {
		s := e.slos[name]
		s.prune(now)
		st := SLOStatus{Name: name, Target: s.def.Target, GoodTotal: s.good, BadTotal: s.bad}
		fastCut := now.Add(-s.def.FastWindow)
		var fg, fb, sg, sb int
		for _, ev := range s.events {
			if ev.good {
				sg++
			} else {
				sb++
			}
			if !ev.t.Before(fastCut) {
				if ev.good {
					fg++
				} else {
					fb++
				}
			}
		}
		st.FastEvents = fg + fb
		st.FastSLI, st.FastBurn = sliBurn(fg, fb, s.def.Target)
		st.SlowSLI, st.SlowBurn = sliBurn(sg, sb, s.def.Target)
		st.Burning = st.FastEvents >= s.def.MinEvents &&
			st.FastBurn >= s.def.BurnThreshold && st.SlowBurn >= s.def.BurnThreshold
		out = append(out, st)
	}
	return out
}

// sliBurn computes the good fraction and burn rate of one window. An empty
// window is a perfect SLI; a zero error budget (target 1.0) burns at +Inf
// the moment anything is bad, reported as a large finite rate so the text
// exposition stays parseable.
func sliBurn(good, bad int, target float64) (sli, burn float64) {
	total := good + bad
	if total == 0 {
		return 1, 0
	}
	sli = float64(good) / float64(total)
	budget := 1 - target
	badFrac := float64(bad) / float64(total)
	if budget <= 0 {
		if bad > 0 {
			return sli, 1e9
		}
		return sli, 0
	}
	return sli, badFrac / budget
}

// Burning returns the names of currently-alerting objectives.
func (e *SLOEngine) Burning() []string {
	var names []string
	for _, st := range e.Evaluate() {
		if st.Burning {
			names = append(names, st.Name)
		}
	}
	return names
}

// Verdict renders the greppable one-line summary: "slo: ok" or
// "slo: burning <name>(fast=2.3x,slow=2.1x) ...".
func (e *SLOEngine) Verdict() string {
	sts := e.Evaluate()
	var burning []string
	for _, st := range sts {
		if st.Burning {
			burning = append(burning,
				fmt.Sprintf("%s(fast=%.1fx,slow=%.1fx)", st.Name, st.FastBurn, st.SlowBurn))
		}
	}
	if len(burning) == 0 {
		return "slo: ok"
	}
	sort.Strings(burning)
	return "slo: burning " + strings.Join(burning, " ")
}

// WriteMetrics renders the staticpipe_slo_* Prometheus families in text
// exposition format, shaped to plug into telemetry.NewMux as an extra
// appender.
func (e *SLOEngine) WriteMetrics(w io.Writer) {
	if e == nil {
		return
	}
	sts := e.Evaluate()
	telemetry.Family(w, "staticpipe_slo_target", "gauge", "Declared objective: required good fraction per SLO.")
	for _, st := range sts {
		fmt.Fprintf(w, "staticpipe_slo_target{%s} %s\n", telemetry.Label("slo", st.Name), ftoa(st.Target))
	}
	telemetry.Family(w, "staticpipe_slo_sli", "gauge", "Observed good fraction per SLO and evaluation window.")
	for _, st := range sts {
		slo := telemetry.Label("slo", st.Name)
		fmt.Fprintf(w, "staticpipe_slo_sli{%s,window=\"fast\"} %s\n", slo, ftoa(st.FastSLI))
		fmt.Fprintf(w, "staticpipe_slo_sli{%s,window=\"slow\"} %s\n", slo, ftoa(st.SlowSLI))
	}
	telemetry.Family(w, "staticpipe_slo_burn_rate", "gauge", "Error-budget burn rate per SLO and window (1 = sustainable pace).")
	for _, st := range sts {
		slo := telemetry.Label("slo", st.Name)
		fmt.Fprintf(w, "staticpipe_slo_burn_rate{%s,window=\"fast\"} %s\n", slo, ftoa(st.FastBurn))
		fmt.Fprintf(w, "staticpipe_slo_burn_rate{%s,window=\"slow\"} %s\n", slo, ftoa(st.SlowBurn))
	}
	telemetry.Family(w, "staticpipe_slo_burning", "gauge", "Multi-window burn-rate alert state per SLO (1 = alerting).")
	for _, st := range sts {
		v := 0
		if st.Burning {
			v = 1
		}
		fmt.Fprintf(w, "staticpipe_slo_burning{%s} %d\n", telemetry.Label("slo", st.Name), v)
	}
	telemetry.Family(w, "staticpipe_slo_events_total", "counter", "Lifetime observations per SLO, by classification.")
	for _, st := range sts {
		slo := telemetry.Label("slo", st.Name)
		fmt.Fprintf(w, "staticpipe_slo_events_total{%s,result=\"good\"} %d\n", slo, st.GoodTotal)
		fmt.Fprintf(w, "staticpipe_slo_events_total{%s,result=\"bad\"} %d\n", slo, st.BadTotal)
	}
}

// ftoa renders a float sample value.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
