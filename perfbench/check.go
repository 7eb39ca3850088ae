package main

import (
	"fmt"
	"math"

	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// Failure reasons an op is counted under.
const (
	reasonError  = "error"  // the call returned an error or the service refused the job
	reasonOutput = "output" // an output element differs from the reference, or is missing
	reasonDrain  = "drain"  // the run did not drain clean
	reasonII     = "ii"     // the initiation interval misses the theorem rate
)

// tol is the tolerance dfsim -verify compares outputs with.
const tol = 1e-9

// lane is one lane's observed outcome of a run.
type lane struct {
	outputs map[string][]value.Value
	clean   bool
}

// expect is what every run of one program on one input set must show.
type expect struct {
	// refs holds, per lane, each reference's output arrays: val.Interp
	// always, and for the paper's programs a plain-Go evaluation too.
	refs [][]map[string][]float64
	// primary is the output whose arrival rate the II check reads.
	primary string
	// rate is the theorem rate the observed II must equal (2 balanced, 3
	// under Todd's scheme); 0 skips the check.
	rate float64
	// floor is the mcm.PredictII bound a program with a data-dependent
	// conditional is held to instead; 0 skips it.
	floor float64
}

// failure is a failed check: the reason an op is counted under, and what
// differed.
type failure struct {
	reason string
	err    error
}

func (f *failure) Error() string { return f.reason + ": " + f.err.Error() }

func fail(reason, format string, args ...any) *failure {
	return &failure{reason: reason, err: fmt.Errorf(format, args...)}
}

// check compares a run's lanes (lane 0 first) and lane 0's observed II at
// the primary output with exp. It returns nil when every check passes.
func check(exp *expect, lanes []lane, ii float64) *failure {
	if len(lanes) != len(exp.refs) {
		return fail(reasonOutput, "%d lanes, want %d", len(lanes), len(exp.refs))
	}
	for l, ln := range lanes {
		for _, ref := range exp.refs[l] {
			for name, want := range ref {
				got, ok := ln.outputs[name]
				if !ok {
					return fail(reasonOutput, "lane %d: output %s missing", l, name)
				}
				if len(got) != len(want) {
					return fail(reasonOutput, "lane %d: output %s has %d elements, want %d", l, name, len(got), len(want))
				}
				for i, w := range want {
					if !value.Close(got[i], value.R(w), tol) {
						return fail(reasonOutput, "lane %d: %s[%d] = %v, want %v", l, name, i, got[i], w)
					}
				}
			}
		}
		if !ln.clean {
			return fail(reasonDrain, "lane %d did not drain clean", l)
		}
	}
	const eps = 1e-9
	if exp.rate > 0 && math.Abs(ii-exp.rate) > eps {
		return fail(reasonII, "II %.4f at %s, theorem rate %g", ii, exp.primary, exp.rate)
	}
	if exp.floor > 0 && ii < exp.floor-eps {
		return fail(reasonII, "II %.4f at %s below the predicted bound %g", ii, exp.primary, exp.floor)
	}
	return nil
}

// references evaluates the program on each lane's inputs with val.Interp
// and, when p has one, with its plain-Go formula. A formula that disagrees
// with the interpreter is an error of the benchmark itself.
func references(p *program, lanes []map[string][]value.Value) ([][]map[string][]float64, error) {
	refs := make([][]map[string][]float64, len(lanes))
	for l, in := range lanes {
		got, err := val.Interp(p.chk, in)
		if err != nil {
			return nil, fmt.Errorf("%s: interpreter: %w", p.name, err)
		}
		interp := map[string][]float64{}
		for name, arr := range got {
			interp[name] = reals(arr.Elems)
		}
		refs[l] = append(refs[l], interp)
		if p.formula == nil {
			continue
		}
		fin := map[string][]float64{}
		for name, vs := range in {
			fin[name] = reals(vs)
		}
		formula := p.formula(fin)
		for name, want := range formula {
			ip := interp[name]
			if len(ip) != len(want) {
				return nil, fmt.Errorf("%s: formula gives %d elements of %s, interpreter %d", p.name, len(want), name, len(ip))
			}
			for i := range want {
				if !value.Close(value.R(ip[i]), value.R(want[i]), tol) {
					return nil, fmt.Errorf("%s: formula %s[%d] = %v, interpreter %v", p.name, name, i, want[i], ip[i])
				}
			}
		}
		refs[l] = append(refs[l], formula)
	}
	return refs, nil
}

// withLanes fills in lane inputs: lane 0 is base, lane l > 0 is base
// overridden by over[l].
func withLanes(base map[string][]value.Value, over []map[string][]value.Value) []map[string][]value.Value {
	if len(over) == 0 {
		return []map[string][]value.Value{base}
	}
	out := make([]map[string][]value.Value, len(over))
	for l := range over {
		m := map[string][]value.Value{}
		for k, v := range base {
			m[k] = v
		}
		if l > 0 {
			for k, v := range over[l] {
				m[k] = v
			}
		}
		out[l] = m
	}
	return out
}
