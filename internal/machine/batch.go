package machine

// Batched execution: B independent input streams ("lanes") run through one
// prepared machine configuration in a single Run. Where the exec core
// widens its arc state into lane-minor structure-of-arrays rows, the
// packet-level simulator has nothing to share between lanes (each lane's
// packets, time wheels and FU pipelines are its own), so it runs the lanes
// one after another, in lane order, each as a scalar run over pooled run
// state. Per-lane cycle accounting — packet counts, busy counters, II — is
// therefore exactly what a scalar run of that lane's streams reports, and
// lane 0 (which always consumes the base streams and carries the Tracer)
// is byte-identical to a scalar run by construction.
//
// Cancellation is polled by each lane's cycle loop: lanes that finished
// before the cancel come back complete, the lane running when it lands
// stops at its next poll, and every later lane comes back Canceled at
// cycle 0.

import (
	"context"
	"fmt"

	"staticpipe/internal/exec"
	"staticpipe/internal/trace"
)

// runBatched runs cfg.Batch lanes over the prepared graph and assembles the
// per-lane views, lane 0 becoming the top-level Result.
func (p *Prepared) runBatched(cfg Config) (*Result, error) {
	b := cfg.Batch
	if b > exec.MaxBatch {
		return nil, fmt.Errorf("machine: Batch %d exceeds the %d-lane limit", b, exec.MaxBatch)
	}
	streams, err := p.tab.BindStreams(cfg.Inputs, cfg.LaneInputs, b, nil)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}

	var laneCtrs []*trace.LaneCounters
	if cfg.Progress != nil {
		laneCtrs = cfg.Progress.InitLanes(b)
	}
	lanes := make([]LaneResult, b)
	var top *Result
	anyMaxed := false
	cancelCycle := -1
	for l := range lanes {
		lcfg := cfg
		if l > 0 {
			lcfg.Tracer = nil // lane 0 owns the event stream
		}
		var ctr *trace.LaneCounters
		if laneCtrs != nil {
			ctr = laneCtrs[l]
		}
		res, err := p.runLane(lcfg, streams, l, b, ctr)
		if res == nil {
			return nil, err
		}
		if res.Canceled {
			if l == 0 || res.Cycles > cancelCycle {
				cancelCycle = res.Cycles
			}
		} else if res.Cycles >= cfg.MaxCycles {
			anyMaxed = true
		}
		lanes[l] = LaneResult{
			Cycles:       res.Cycles,
			Outputs:      res.Outputs,
			Arrivals:     res.Arrivals,
			Packets:      res.Packets,
			AMPackets:    res.AMPackets,
			TotalPackets: res.TotalPackets,
			PEBusy:       res.PEBusy,
			FUBusy:       res.FUBusy,
			Clean:        res.Clean,
			Canceled:     res.Canceled,
			Stalled:      res.Stalled,
		}
		if l == 0 {
			top = res
		}
	}
	top.Batch = b
	top.Lanes = lanes
	if cancelCycle >= 0 {
		if top.Canceled {
			cancelCycle = top.Cycles // lane 0's cycle names the run's stop point
		} else {
			top.Canceled = true
			top.Clean = false
			top.Stalled = append([]string{fmt.Sprintf(
				"canceled: run stopped by context at cycle %d before quiescence", cancelCycle)},
				top.Stalled...)
		}
		return top, fmt.Errorf("machine: run canceled at cycle %d: %w", cancelCycle, context.Cause(cfg.Ctx))
	}
	if anyMaxed {
		return top, fmt.Errorf("machine: no quiescence after %d cycles (livelock or MaxCycles too small)", cfg.MaxCycles)
	}
	return top, nil
}
