package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"

	"staticpipe/internal/artifact"
	"staticpipe/internal/balance"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/foriter"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/mcm"
	"staticpipe/internal/obs"
	"staticpipe/internal/passes"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/place"
	"staticpipe/internal/serve"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// sizes scales the workloads. full is what the benchmark runs; the tests
// run tiny.
type sizes struct {
	compileProgs    int // programs per compile-large round
	compileCells    [2]int
	compileElems    int
	streamElems     int
	streamLanes     int
	machineElems    int // paper programs on the packet machine
	machineGen      int // generated programs per machine-placed round
	machineGenCells [2]int
	machineGenElems int
	machineWeather  int // weather ops per machine-placed round
	machineLong     int // weather ops at 4 × machineElems per round
	serveScale      int // element-count divisor for serve-repeat
	serveZipf       int // jobs at rank 1 of the Zipf schedule
	warmupOps       int
}

var full = sizes{
	compileProgs: 29, compileCells: [2]int{250, 550}, compileElems: 24,
	streamElems: 4096, streamLanes: 16,
	machineElems: 512, machineGen: 22, machineGenCells: [2]int{100, 250}, machineGenElems: 32, machineWeather: 13, machineLong: 5,
	serveScale: 1, serveZipf: 32,
	warmupOps: 8,
}

var tiny = sizes{
	compileProgs: 3, compileCells: [2]int{60, 120}, compileElems: 16,
	streamElems: 64, streamLanes: 4,
	machineElems: 32, machineGen: 2, machineGenCells: [2]int{40, 80}, machineGenElems: 16, machineWeather: 2, machineLong: 1,
	serveScale: 16, serveZipf: 3,
	warmupOps: 1,
}

// result is what the timed part of an op hands to its check and to the
// counters.
type result struct {
	lanes  []lane
	ii     float64 // lane 0's II at the primary output
	cycles int     // simulated cycles, lane 0
	// shape of the op's compiled program, when the op can see it
	prog          string
	cells, stages int
	// layer counts
	firings, packets int64
	busy             float64 // machine PE busy ratio
	machineRuns      int
	cutCost          int64
	placements       int
	queued           bool // the service answered 202 and queued the job
}

// op is one unit of user work: do is timed, check is not.
type op struct {
	label string
	do    func(sp *spans) (*result, error)
	check func(*result) *failure
}

// shape is one distinct program's static size.
type shape struct{ cells, stages int }

// state is a set-up workload: the round of ops the timed loop repeats.
type state struct {
	round  []op
	warmup []op
	// beginRound and endRound run around every round, outside op timing;
	// endRound reports the round's artifact-cache hits and misses.
	beginRound func()
	endRound   func() (hits, misses int64, err error)
	// finalize computes the distinct programs' sizes after the loop, for
	// workloads whose ops do not report them.
	finalize func() (map[string]shape, error)
}

type workload struct {
	name  string
	setup func(seed int64, sz sizes, traced bool) (*state, error)
}

// workloads are BENCHMARK.json's, in its order; its why lines say what
// each is for.
var workloads = []workload{
	{"compile-large", setupCompileLarge},
	{"stream-long", setupStreamLong},
	{"machine-placed", setupMachinePlaced},
	{"serve-repeat", setupServeRepeat},
}

// compiled is a program compiled at set-up.
type compiled struct {
	p     *program
	art   *core.Artifact
	lanes []map[string][]value.Value // per-lane overrides of a batched op
	prep  *exec.Prepared             // traced runs: for the exec.run part
}

// compileParts makes, directly, the calls core.CompileArtifact makes
// inside itself, so the traced run splits compile time by layer. It
// returns the exec.Prepared the last part built.
func compileParts(sp *spans, outer, src string, opts core.Options) *exec.Prepared {
	if sp == nil {
		return nil
	}
	var (
		prog *val.Program
		chk  *val.Checked
		res  *pipestruct.Result
		plan *balance.Plan
		prep *exec.Prepared
		err  error
	)
	sp.part(outer, "val.parse", func() { prog, err = val.Parse(src) })
	if err != nil {
		return nil
	}
	sp.part(outer, "val.check", func() { chk, err = val.Check(prog) })
	if err != nil {
		return nil
	}
	sp.part(outer, "pipestruct.construct", func() {
		res, err = pipestruct.Compile(chk, pipestruct.Options{ForIterScheme: opts.ForIterScheme, Passes: []passes.Pass{}})
	})
	if err != nil {
		return nil
	}
	var g *graph.Graph = res.Graph
	sp.part(outer, "balance.plan", func() { plan, err = balance.PlanGraph(g, true) })
	if err != nil {
		return nil
	}
	sp.part(outer, "balance.apply", func() { balance.Apply(g, plan) })
	sp.part(outer, "exec.prepare", func() { prep, err = exec.Prepare(g) })
	if err != nil {
		return nil
	}
	return prep
}

// runLanes converts a scalar or batched core run into checked lanes.
func runLanes(rr []*core.RunResult) []lane {
	out := make([]lane, len(rr))
	for l, r := range rr {
		outs := map[string][]value.Value{}
		for name, arr := range r.Outputs {
			outs[name] = arr.Elems
		}
		out[l] = lane{outputs: outs, clean: r.Exec.Clean}
	}
	return out
}

func sumFirings(r *exec.Result) int64 {
	var n int64
	if r.Batch > 1 {
		for _, l := range r.Lanes {
			for _, f := range l.Firings {
				n += int64(f)
			}
		}
		return n
	}
	for _, f := range r.Firings {
		n += int64(f)
	}
	return n
}

// refCache computes a program's references on first use, outside op
// timing, and reuses them: every round binds the same inputs.
type refCache map[string][][]map[string][]float64

func (rc refCache) get(key string, p *program, lanes []map[string][]value.Value) ([][]map[string][]float64, error) {
	if r, ok := rc[key]; ok {
		return r, nil
	}
	r, err := references(p, lanes)
	if err != nil {
		return nil, err
	}
	rc[key] = r
	return r, nil
}

// stratified returns n targets evenly spread over [lo, hi], one per
// stratum midpoint, so every seed draws programs of the same sizes.
func stratified(n int, lo, hi int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = lo + int(float64(hi-lo)*(float64(k)+0.5)/float64(n))
	}
	return out
}

// blocksFor returns the block count whose generated program compiles to
// about cells cells (about 24 per block, plus about 25 for a tail).
func blocksFor(cells int, tail bool) int {
	if tail {
		cells -= 25
	}
	return max(1, (cells-10+12)/24)
}

// compileRunOp is compile-large's op: compile cold, run once.
func compileRunOp(p *program, refs refCache, naive map[string]int) op {
	var art *core.Artifact
	return op{
		label: p.name,
		do: func(sp *spans) (*result, error) {
			var err error
			sp.call("core.compile", func() { art, err = core.CompileArtifact(p.src, core.Options{}) })
			if err != nil {
				return nil, err
			}
			prep := compileParts(sp, "core.compile", p.src, core.Options{})
			var rr *core.RunResult
			sp.call("core.run", func() { rr, err = art.Run(core.Binding{}, p.inputs) })
			if err != nil {
				return nil, err
			}
			sp.part("core.run", "exec.run", func() { _, err = prep.Run(exec.Options{Inputs: p.inputs}) })
			if err != nil {
				return nil, err
			}
			return &result{
				lanes: runLanes([]*core.RunResult{rr}), ii: rr.II(p.primary), cycles: rr.Exec.Cycles,
				prog: p.name, cells: art.Cells, stages: art.Compiled.Plan.Total,
				firings: sumFirings(rr.Exec),
			}, nil
		},
		check: func(r *result) *failure {
			ref, err := refs.get(p.name, p, []map[string][]value.Value{p.inputs})
			if err != nil {
				return &failure{reasonError, err}
			}
			if f := check(&expect{refs: ref, primary: p.primary, rate: 2}, r.lanes, r.ii); f != nil {
				return f
			}
			n, ok := naive[p.name]
			if !ok {
				res, err := pipestruct.Compile(p.chk, pipestruct.Options{Passes: []passes.Pass{passes.Balance{Naive: true}}})
				if err != nil {
					return &failure{reasonError, err}
				}
				n = res.Plan.Total
				naive[p.name] = n
			}
			if r.stages > n {
				return fail(reasonOutput, "optimal balancing inserts %d buffer stages, naive %d", r.stages, n)
			}
			return nil
		},
	}
}

func setupCompileLarge(seed int64, sz sizes, traced bool) (*state, error) {
	rng := rand.New(rand.NewSource(seed))
	refs, naive := refCache{}, map[string]int{}
	st := &state{}
	for k, cells := range stratified(sz.compileProgs, sz.compileCells[0], sz.compileCells[1]) {
		tail := k%3 == 1
		p := genProgram(rng, fmt.Sprintf("gen%02d", k), sz.compileElems, blocksFor(cells, tail), tail)
		if err := p.bind(rng); err != nil {
			return nil, err
		}
		st.round = append(st.round, compileRunOp(&p, refs, naive))
	}
	st.warmup = st.round[:sz.warmupOps]
	return st, nil
}

func setupStreamLong(seed int64, sz sizes, traced bool) (*state, error) {
	rng := rand.New(rand.NewSource(seed))
	ps := paperPrograms(sz.streamElems)
	todd := ps[3] // example2
	todd.name = "example2-todd"
	ps = append(ps, todd)
	refs := refCache{}
	st := &state{}
	var batched *compiled
	for i := range ps {
		p := &ps[i]
		opts := core.Options{}
		rate := 2.0
		if p.name == "example2-todd" {
			opts.ForIterScheme = foriter.Todd
			rate = 3
		}
		art, err := core.CompileArtifact(p.src, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		p.chk, p.inputs = art.Checked, bindInputs(rng, art.Checked)
		c := &compiled{p: p, art: art}
		if traced {
			if c.prep, err = exec.Prepare(art.Compiled.Graph); err != nil {
				return nil, err
			}
		}
		st.round = append(st.round, streamOp(c, rate, refs, 1))
		if p.name == "fig2" {
			batched = &compiled{p: p, art: art, prep: c.prep, lanes: laneInputs(rng, p.chk, sz.streamLanes)}
		}
	}
	st.round = append(st.round, streamOp(batched, 2, refs, sz.streamLanes))
	st.warmup = st.round
	return st, nil
}

// streamOp is one exec-core run of a program compiled at set-up: scalar,
// or batched across lanes with distinct lane inputs.
func streamOp(c *compiled, rate float64, refs refCache, lanes int) op {
	p := c.p
	label := p.name
	if lanes > 1 {
		label = fmt.Sprintf("%s-batch%d", p.name, lanes)
	}
	var floor float64
	return op{
		label: label,
		do: func(sp *spans) (*result, error) {
			var (
				rr  []*core.RunResult
				res *exec.Result
				err error
			)
			if lanes > 1 {
				var br *core.BatchRunResult
				sp.call("core.run", func() { br, err = c.art.RunBatch(core.Binding{Batch: lanes}, p.inputs, c.lanes) })
				if err != nil {
					return nil, err
				}
				sp.part("core.run", "exec.run", func() {
					_, err = c.prep.Run(exec.Options{Batch: lanes, Inputs: p.inputs, LaneInputs: c.lanes})
				})
				rr, res = br.Lanes, br.Exec
			} else {
				var r *core.RunResult
				sp.call("core.run", func() { r, err = c.art.Run(core.Binding{}, p.inputs) })
				if err != nil {
					return nil, err
				}
				sp.part("core.run", "exec.run", func() { _, err = c.prep.Run(exec.Options{Inputs: p.inputs}) })
				rr, res = []*core.RunResult{r}, r.Exec
			}
			if err != nil {
				return nil, err
			}
			return &result{lanes: runLanes(rr), ii: rr[0].II(p.primary), cycles: rr[0].Exec.Cycles,
				prog: p.name, cells: c.art.Cells, stages: c.art.Compiled.Plan.Total, firings: sumFirings(res)}, nil
		},
		check: func(r *result) *failure {
			ref, err := refs.get(label, p, withLanes(p.inputs, c.lanes))
			if err != nil {
				return &failure{reasonError, err}
			}
			exp := &expect{refs: ref, primary: p.primary, rate: rate}
			if p.conditional {
				if floor == 0 {
					pred, err := mcm.PredictII(c.art.Compiled.Graph)
					if err != nil {
						return &failure{reasonError, err}
					}
					floor = pred.Float()
				}
				exp.rate, exp.floor = 0, floor
			}
			return check(exp, r.lanes, r.ii)
		},
	}
}

// machineConfig is how dfsim -machine -pes 8 configures the packet
// machine (its -fus and -ams defaults are 2).
func machineConfig(pl *place.Placement, in map[string][]value.Value) machine.Config {
	return machine.Config{PEs: 8, FUs: 2, AMs: 2, Assign: machine.Placed, Placement: pl.PE, Inputs: in}
}

func machineOp(p *program, refs refCache) op {
	var art *core.Artifact
	return op{
		label: p.name,
		do: func(sp *spans) (*result, error) {
			var err error
			sp.call("core.compile", func() { art, err = core.CompileArtifact(p.src, core.Options{}) })
			if err != nil {
				return nil, err
			}
			compileParts(sp, "core.compile", p.src, core.Options{})
			var mp *machine.Prepared
			sp.call("machine.prepare", func() { mp, err = art.Machine() })
			if err != nil {
				return nil, err
			}
			var pl *place.Placement
			sp.call("place.plan", func() { pl, err = place.Plan(art.Compiled.Graph, place.Options{PEs: 8}) })
			if err != nil {
				return nil, err
			}
			var mr *machine.Result
			sp.call("machine.run", func() { mr, err = mp.Run(machineConfig(pl, p.inputs)) })
			if err != nil {
				return nil, err
			}
			return &result{
				lanes: []lane{{outputs: mr.Outputs, clean: mr.Clean}}, ii: mr.II(p.primary), cycles: mr.Cycles,
				prog: p.name, cells: art.Cells, stages: art.Compiled.Plan.Total,
				packets: int64(mr.TotalPackets), busy: mr.Utilization(), machineRuns: 1,
				cutCost: pl.Cost, placements: 1,
			}, nil
		},
		check: func(r *result) *failure {
			ref, err := refs.get(p.name, p, []map[string][]value.Value{p.inputs})
			if err != nil {
				return &failure{reasonError, err}
			}
			return check(&expect{refs: ref, primary: p.primary}, r.lanes, r.ii)
		},
	}
}

func setupMachinePlaced(seed int64, sz sizes, traced bool) (*state, error) {
	rng := rand.New(rand.NewSource(seed))
	refs := refCache{}
	ps := paperPrograms(sz.machineElems)
	for k, cells := range stratified(sz.machineGen, sz.machineGenCells[0], sz.machineGenCells[1]) {
		tail := k%2 == 1
		ps = append(ps, genProgram(rng, fmt.Sprintf("gen%02d", k), sz.machineGenElems, blocksFor(cells, tail), tail))
	}
	// Weather also runs at four times the length, above every generated
	// program's cost.
	long := paperPrograms(4 * sz.machineElems)[5]
	long.name = "weather-long"
	ps = append(ps, long)
	st := &state{}
	for i := range ps {
		p := &ps[i]
		if err := p.bind(rng); err != nil {
			return nil, err
		}
		// The generated programs' costs shift with the seed, so a
		// percentile falling among them would shift with it. Weather
		// repeats instead, so that the median op is a weather op and the
		// 95th percentile a long-weather op on every seed.
		reps := 1
		switch p.name {
		case "weather":
			reps = sz.machineWeather
		case "weather-long":
			reps = sz.machineLong
		}
		for k := 0; k < reps; k++ {
			st.round = append(st.round, machineOp(p, refs))
		}
	}
	st.warmup = st.round[:sz.warmupOps]
	return st, nil
}

// serveSpec is one distinct job of serve-repeat.
type serveSpec struct {
	p     *program
	model string
	batch int
	lanes []map[string][]value.Value
}

// serveSpecs builds the 64 distinct jobs of serve-repeat, in rank order:
// the classes below are dealt round-robin, so every class spans the Zipf
// head and tail alike, and a seed changes data and program details, never
// which kind of job is popular.
func serveSpecs(rng *rand.Rand, sz sizes) ([]*serveSpec, error) {
	n := func(elems int) int { return max(16, elems/sz.serveScale) }
	paper := func(elems int) []*program {
		ps := paperPrograms(n(elems))[:6] // iter-reconverge's II is stream-long's to watch
		out := make([]*program, len(ps))
		for i := range ps {
			out[i] = &ps[i]
		}
		return out
	}
	gen := func(prefix string, count, elems, minBlocks, spread int) []*program {
		out := make([]*program, count)
		for k := range out {
			p := genProgram(rng, fmt.Sprintf("%s%02d", prefix, k), n(elems), minBlocks+k%spread, k%2 == 1)
			out[k] = &p
		}
		return out
	}
	type class struct {
		progs []*program
		model string
		batch int
	}
	small := paper(256)
	genExec := gen("gx", 16, 64, 2, 8)
	classes := []class{
		{small, "exec", 1},
		{genExec, "exec", 1},
		{paper(1024), "exec", 1},
		{small, "exec", 8},       // same programs as the first class, batch 8
		{genExec[:8], "exec", 8}, // same programs as the second class, batch 8
		{paper(64), "machine", 1},
		{gen("gm", 11, 32, 2, 3), "machine", 1},
	}
	// Rank 4 is weather at 4096 elements, the costliest job that still
	// runs inline: its 8 repeats hold op_cpu_p95_ms inside one class.
	specs := []*serveSpec{nil, nil, nil, {p: paper(4096)[5], model: "exec", batch: 1}}
	var rest []*serveSpec
	for k := 0; k < len(genExec); k++ {
		for _, c := range classes {
			if k < len(c.progs) {
				rest = append(rest, &serveSpec{p: c.progs[k], model: c.model, batch: c.batch})
			}
		}
	}
	copy(specs[:3], rest[:3])
	specs = append(specs, rest[3:]...)
	// The least popular ranks go to jobs priced above the offload
	// threshold (by 20% or more, so no seed's variation brings one under
	// it): each costs 100 ms or more, so a handful per round suffices.
	for _, p := range gen("go", 4, 4096, 6, 2) {
		specs = append(specs, &serveSpec{p: p, model: "exec", batch: 1})
	}
	for _, s := range specs {
		if s.p.chk == nil {
			if err := s.p.bind(rng); err != nil {
				return nil, err
			}
		}
		if s.batch > 1 {
			s.lanes = laneInputs(rng, s.p.chk, s.batch)
		}
	}
	return specs, nil
}

// zipfSchedule returns the round's job sequence: rank r (from 1) is
// submitted max(1, head/r) times, in an order drawn from rng. Counts are
// fixed, so every round holds the same number of jobs and of distinct
// programs.
func zipfSchedule(rng *rand.Rand, n, head int) []int {
	var seq []int
	for r := 1; r <= n; r++ {
		for c := 0; c < max(1, head/r); c++ {
			seq = append(seq, r-1)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func toStreams(in map[string][]value.Value) map[string]serve.Stream {
	out := make(map[string]serve.Stream, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// service is one serve-repeat round's service, configured the way dfserve
// configures it by default, with its handlers on an in-process mux.
type service struct {
	svc   *serve.Service
	mux   *http.ServeMux
	cache *artifact.Cache
	// traced runs: what the replayed calls compiled, per artifact key
	arts  map[string]*core.Artifact
	preps map[string]*exec.Prepared
	machs map[string]*machine.Prepared
}

func newService() *service {
	cache := artifact.New(artifact.Config{MaxEntries: 256, MaxBytes: 256 << 20})
	svc := serve.New(serve.Config{
		QueueDepth: 256, TenantBurst: 16, KeepFinished: 64,
		Flight: obs.NewFlight(0, 0, 0), SLO: serve.DefaultSLOs(), Cache: cache,
	})
	mux := http.NewServeMux()
	svc.Register(mux)
	return &service{svc: svc, mux: mux, cache: cache,
		arts: map[string]*core.Artifact{}, preps: map[string]*exec.Prepared{}, machs: map[string]*machine.Prepared{}}
}

func (s *service) close() error { return s.svc.Close(context.Background()) }

func setupServeRepeat(seed int64, sz sizes, traced bool) (*state, error) {
	rng := rand.New(rand.NewSource(seed))
	specs, err := serveSpecs(rng, sz)
	if err != nil {
		return nil, err
	}
	// The order is one fixed shuffle: it decides which jobs' results and
	// artifacts are resident together, and so the peak memory, which
	// should not move with the seed.
	seq := zipfSchedule(rand.New(rand.NewSource(1)), len(specs), sz.serveZipf)
	refs := refCache{}
	st := &state{}
	var cur *service
	for _, i := range seq {
		st.round = append(st.round, serveOp(specs[i], fmt.Sprintf("s%02d", i), &cur, refs))
	}
	st.beginRound = func() { cur = newService() }
	st.endRound = func() (int64, int64, error) {
		cs := cur.cache.Stats()
		err := cur.close()
		// Each round models a fresh service process, which would not
		// carry the last one's garbage: collect it outside op timing, so
		// peak RSS reads one round's working set, not GC phase.
		cur = nil
		runtime.GC()
		return cs.Hits, cs.Misses, err
	}
	// The warm-up pass submits the eight most popular jobs once each, the
	// same kinds of job on every seed.
	for i := 0; i < min(8, len(specs)); i++ {
		st.warmup = append(st.warmup, serveOp(specs[i], fmt.Sprintf("s%02d", i), &cur, refs))
	}
	st.finalize = func() (map[string]shape, error) {
		shapes := map[string]shape{}
		for _, s := range specs {
			if _, ok := shapes[s.p.src]; ok {
				continue
			}
			art, err := core.CompileArtifact(s.p.src, core.Options{})
			if err != nil {
				return nil, err
			}
			shapes[s.p.src] = shape{art.Cells, art.Compiled.Plan.Total}
		}
		return shapes, nil
	}
	return st, nil
}

// serveOp is one job: encode the spec, POST it, await and GET it if it
// was queued, decode the result.
func serveOp(s *serveSpec, key string, cur **service, refs refCache) op {
	spec := serve.Spec{Tenant: "bench", Source: s.p.src, Inputs: toStreams(s.p.inputs), Model: s.model}
	if s.batch > 1 {
		spec.Batch = s.batch
		for _, l := range s.lanes {
			var m map[string]serve.Stream
			if l != nil {
				m = toStreams(l)
			}
			spec.LaneInputs = append(spec.LaneInputs, m)
		}
	}
	label := fmt.Sprintf("%s/%s/%s/b%d", key, s.p.name, s.model, s.batch)
	return op{
		label: label,
		do: func(sp *spans) (*result, error) {
			svc := *cur
			var (
				body []byte
				err  error
				view serve.JobView
			)
			sp.call("serve.codec", func() { body, err = json.Marshal(spec) })
			if err != nil {
				return nil, err
			}
			var misses0 int64
			if sp != nil {
				misses0 = svc.cache.Stats().Misses
			}
			rec := httptest.NewRecorder()
			sp.call("serve.submit", func() {
				svc.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
			})
			sp.call("serve.codec", func() { err = json.Unmarshal(rec.Body.Bytes(), &view) })
			if err != nil {
				return nil, fmt.Errorf("decode %d response: %w", rec.Code, err)
			}
			runIn := "serve.submit"
			switch rec.Code {
			case http.StatusOK:
			case http.StatusAccepted:
				runIn = "serve.wait"
				get := httptest.NewRecorder()
				sp.call("serve.wait", func() {
					if j := svc.svc.Get(view.ID); j != nil {
						<-j.Done()
					}
					svc.mux.ServeHTTP(get, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/jobs/%d", view.ID), nil))
				})
				sp.call("serve.codec", func() { err = json.Unmarshal(get.Body.Bytes(), &view) })
				if err != nil || get.Code != http.StatusOK {
					return nil, fmt.Errorf("GET /jobs/%d: %d %v", view.ID, get.Code, err)
				}
			default:
				return nil, fmt.Errorf("POST /jobs: %d %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
			}
			if view.State != serve.StateDone || view.Result == nil {
				return nil, fmt.Errorf("job %d ended %s: %s", view.ID, view.State, view.Error)
			}
			r := &result{cycles: view.Result.Cycles, ii: view.Result.II[s.p.primary], queued: runIn == "serve.wait"}
			if s.batch > 1 {
				for _, lv := range view.Result.Lanes {
					r.lanes = append(r.lanes, viewLane(lv.Outputs, lv.Clean))
				}
			} else {
				r.lanes = []lane{viewLane(view.Result.Outputs, view.Result.Clean)}
			}
			if sp != nil {
				miss := svc.cache.Stats().Misses > misses0
				if err := svc.replay(sp, s, spec, miss, runIn, r); err != nil {
					return nil, err
				}
			}
			return r, nil
		},
		check: func(r *result) *failure {
			ref, err := refs.get(key, s.p, withLanes(s.p.inputs, s.lanes))
			if err != nil {
				return &failure{reasonError, err}
			}
			return check(&expect{refs: ref, primary: s.p.primary}, r.lanes, r.ii)
		},
	}
}

func viewLane(outs map[string]serve.Output, clean bool) lane {
	l := lane{outputs: map[string][]value.Value{}, clean: clean}
	for name, o := range outs {
		l.outputs[name] = o.Values
	}
	return l
}

// replay makes, in the traced run, the calls the service made inside the
// handlers: on a cache miss the compile and its parts, and every job's
// run, charged to the handler the run happened in.
func (s *service) replay(sp *spans, js *serveSpec, spec serve.Spec, miss bool, runIn string, r *result) error {
	opts := core.Options{Batch: spec.Batch}
	key := artifact.KeyFor(spec.Source, opts, "", 0).Hash()
	var err error
	if miss || s.arts[key] == nil {
		var art *core.Artifact
		sp.part("serve.submit", "core.compile", func() { art, err = core.CompileArtifact(spec.Source, opts) })
		if err != nil {
			return err
		}
		s.preps[key] = compileParts(sp, "core.compile", spec.Source, opts)
		s.arts[key] = art
	}
	art, prep := s.arts[key], s.preps[key]
	in := js.p.inputs
	switch js.model {
	case serve.ModelMachine:
		mp := s.machs[key]
		if mp == nil {
			sp.part(runIn, "machine.prepare", func() { mp, err = machine.Prepare(art.Compiled.Graph) })
			if err != nil {
				return err
			}
			s.machs[key] = mp
		}
		var mr *machine.Result
		sp.part(runIn, "machine.run", func() { mr, err = mp.Run(machine.Config{Inputs: in}) })
		if err != nil {
			return err
		}
		r.packets, r.busy, r.machineRuns = int64(mr.TotalPackets), mr.Utilization(), 1
	default:
		if js.batch > 1 {
			sp.part(runIn, "core.run", func() { _, err = art.RunBatch(core.Binding{}, in, js.lanes) })
		} else {
			sp.part(runIn, "core.run", func() { _, err = art.Run(core.Binding{}, in) })
		}
		if err != nil {
			return err
		}
		var res *exec.Result
		sp.part("core.run", "exec.run", func() {
			res, err = prep.Run(exec.Options{Batch: js.batch, Inputs: in, LaneInputs: js.lanes})
		})
		if err != nil {
			return err
		}
		r.firings = sumFirings(res)
	}
	return nil
}

// sortedKeys is for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
