package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bounds"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// sizes scales every grid and repetition count. full is what the ledger
// records; smoke is the CI-sized sibling bench_test.go runs for one
// pass, whose numbers are never recorded.
type sizes struct {
	modelGrid, generalGrid, simGrid sweep.Spec
	planName                        string
	planFlits                       []int
	planSim                         sweep.Budget // zero keeps the plan's own certification windows
	probes                          int
	// warmups and traced are the fixed pass counts of the set-up and
	// traced phases, per workload.
	warmups, traced map[string]int
	setupReps       int
	// layerReps is how many times a layer probe repeats its input set.
	layerReps int
}

var ablations = []sweep.Variant{
	{Name: "paper"},
	{Name: "no-blocking", NoBlockingCorrection: true},
	{Name: "single-server", SingleServerGroups: true},
	{Name: "pre-erratum", NoPairRateCorrection: true},
}

func fullSizes() sizes {
	figure3, err := sweep.Builtin("figure3")
	if err != nil {
		panic(err) // the builtin registry is compiled in
	}
	return sizes{
		modelGrid: sweep.Spec{
			Name:       "bench-model",
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64, 256, 1024, 4096}}},
			MsgFlits:   []int{8, 16, 32, 64},
			Variants:   ablations,
			Loads:      sweep.LoadSpec{Points: 32, MaxFrac: 0.98},
		},
		generalGrid: sweep.Spec{
			Name: "bench-general",
			Topologies: []sweep.TopologySpec{
				{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}},
				{Family: sweep.FamilyHypercube, Sizes: []int{6, 8, 10}},
				{Family: sweep.FamilyTorus, Sizes: []int{3, 4}, K: 4},
			},
			MsgFlits: []int{16, 32},
			Backends: []string{sweep.BackendModel, sweep.BackendBounds},
			Loads:    sweep.LoadSpec{Points: 32, MaxFrac: 0.95},
		},
		simGrid:   figure3,
		planName:  "bft-capacity",
		planFlits: []int{16, 32, 64},
		probes:    256,
		warmups:   map[string]int{wlModel: 10, wlGeneral: 3, wlSim: 2, wlFleet: 5},
		traced:    map[string]int{wlModel: 50, wlGeneral: 10, wlSim: 5, wlFleet: 20},
		setupReps: 5,
		layerReps: 5,
	}
}

func smokeSizes() sizes {
	small, err := sweep.Builtin("figure3-small")
	if err != nil {
		panic(err)
	}
	// A tenth of the Quick windows: the race detector slows the
	// simulator tenfold and the smoke only has to exercise the paths.
	small.Budget.Warmup, small.Budget.Measure = 400, 2000
	one := map[string]int{wlModel: 1, wlGeneral: 1, wlSim: 1, wlFleet: 1}
	return sizes{
		modelGrid: sweep.Spec{
			Name:       "bench-model",
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
			Variants:   ablations,
			Loads:      sweep.LoadSpec{Points: 4, MaxFrac: 0.98},
		},
		generalGrid: sweep.Spec{
			Name: "bench-general",
			Topologies: []sweep.TopologySpec{
				{Family: sweep.FamilyBFT, Sizes: []int{16}},
				{Family: sweep.FamilyHypercube, Sizes: []int{3}},
				{Family: sweep.FamilyTorus, Sizes: []int{2}, K: 4},
			},
			MsgFlits: []int{8},
			Backends: []string{sweep.BackendModel, sweep.BackendBounds},
			Loads:    sweep.LoadSpec{Points: 4, MaxFrac: 0.95},
		},
		simGrid:   small,
		planName:  "bft-capacity-small",
		planSim:   small.Budget,
		probes:    8,
		warmups:   one,
		traced:    one,
		setupReps: 1,
		layerReps: 1,
	}
}

// env is what a workload instance needs from the run.
type env struct {
	sz     sizes
	seed   uint64
	golden bool // compare against the committed goldens (seed 1, full sizes)
	// updateGolden, when set, is the directory the goldens are rewritten
	// into instead of being compared against.
	updateGolden string
	tmpRoot      string // per-pass store directories are made here
	// corrupt, set only by the test, perturbs one row of every checked
	// pass so the failure path is exercised.
	corrupt bool
}

// maybeCorrupt returns rows, with the first row's model value perturbed
// in a copy when the test asked for corruption.
func (e *env) maybeCorrupt(rows []sweep.Row) []sweep.Row {
	if !e.corrupt || len(rows) == 0 {
		return rows
	}
	out := append([]sweep.Row(nil), rows...)
	out[0].Model++
	return out
}

// passStats is what one pass of a workload reports. Durations are the
// timed stretches only; output checks run after them.
type passStats struct {
	// attempted counts units of work — cells, probes and plans — and
	// failed those that errored or failed an output check.
	attempted, failed int
	coldCells         int
	cold              time.Duration
	warmCells         int
	warm              time.Duration
	wall              time.Duration
	probes            []time.Duration
	plan              time.Duration
	// Counters read off the pass's own objects.
	cacheHitRatio float64
	fleet         fleetCounters
	mape          float64
}

// instance is one set-up workload, ready to run passes.
type instance interface {
	// pass runs the workload once and checks its outputs; spans are
	// recorded when ctx carries a tracer.
	pass(ctx context.Context) (passStats, error)
	// cells is the number of cells one cold Run covers.
	cells() int
	close()
}

// sweepInstance drives ms, gs and sf: a fresh Runner (and for ms a
// fresh Cache) per pass, cold Run, optional warm Run, rows checked
// against the first pass's.
type sweepInstance struct {
	env    *env
	name   string
	spec   sweep.Spec
	cached bool
	ref    []sweep.Row
}

func newSweepInstance(e *env, name string, spec sweep.Spec, cached bool) (*sweepInstance, passStats, error) {
	w := &sweepInstance{env: e, name: name, spec: spec, cached: cached}
	if spec.WithSim {
		w.spec.Budget.Seed = e.seed
	}
	res, err := sweep.NewRunner().Run(context.Background(), w.spec)
	if err != nil {
		return nil, passStats{}, fmt.Errorf("%s: reference run: %w", name, err)
	}
	w.ref = res.Rows
	st := passStats{attempted: len(w.ref)}
	if e.golden {
		bad, err := e.checkGolden(name, goldenRows(w.ref))
		if err != nil {
			return nil, passStats{}, err
		}
		st.failed += bad
	}
	return w, st, nil
}

func (w *sweepInstance) cells() int { return len(w.ref) }
func (w *sweepInstance) close()     {}

func (w *sweepInstance) pass(ctx context.Context) (passStats, error) {
	var st passStats
	ctx, root := obs.StartSpan(ctx, "bench.pass")
	start := time.Now()
	var opts []sweep.Option
	if w.cached {
		opts = append(opts, sweep.WithCache(sweep.NewCache()))
	}
	r := sweep.NewRunner(opts...)

	cctx, span := obs.StartSpan(ctx, "bench.cold")
	t0 := time.Now()
	cold, err := r.Run(cctx, w.spec)
	st.cold = time.Since(t0)
	span.End()
	if err != nil {
		root.End()
		return st, fmt.Errorf("%s: cold run: %w", w.name, err)
	}
	st.coldCells = len(cold.Rows)
	var warm *sweep.Result
	if w.cached {
		wctx, span := obs.StartSpan(ctx, "bench.warm")
		t0 = time.Now()
		warm, err = r.Run(wctx, w.spec)
		st.warm = time.Since(t0)
		span.End()
		if err != nil {
			root.End()
			return st, fmt.Errorf("%s: warm run: %w", w.name, err)
		}
		st.warmCells = len(warm.Rows)
		st.cacheHitRatio = float64(warm.CacheHits) / float64(len(warm.Rows))
	}
	st.wall = time.Since(start)
	root.End()

	st.attempted = st.coldCells + st.warmCells
	st.failed = diffRows(w.env.maybeCorrupt(cold.Rows), w.ref, 0)
	if warm != nil {
		st.failed += diffRows(warm.Rows, cold.Rows, 0)
	}
	if w.spec.WithSim {
		st.mape = mape(cold.Rows)
	}
	return st, nil
}

// relErr is |model-sim|/sim — the simulator is the measurement, as in
// internal/calib — or NaN when either side is missing or not finite.
func relErr(pt eval.Point) float64 {
	if math.IsNaN(pt.Sim) || math.IsNaN(pt.Model) || math.IsInf(pt.Model, 0) || pt.Sim <= 0 {
		return math.NaN()
	}
	return math.Abs(pt.Model-pt.Sim) / pt.Sim
}

// mape is the mean relErr over the rows that have both sides.
func mape(rows []sweep.Row) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if e := relErr(r.Cell); !math.IsNaN(e) {
			sum += e
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// diffRows counts the rows of got that differ from want: every numeric
// field within relTol (0 = bit-identical, NaN equal to NaN) and every
// flag equal. A length mismatch fails every row.
func diffRows(got, want []sweep.Row, relTol float64) int {
	if len(got) != len(want) {
		return len(want)
	}
	bad := 0
	for i := range got {
		if !samePoint(got[i].Cell, want[i].Cell, relTol) {
			bad++
		}
	}
	return bad
}

func samePoint(a, b eval.Point, relTol float64) bool {
	return closeTo(a.LoadFlits, b.LoadFlits, relTol) &&
		closeTo(a.Model, b.Model, relTol) &&
		closeTo(a.Sim, b.Sim, relTol) &&
		closeTo(a.SimCI, b.SimCI, relTol) &&
		closeTo(a.BoundMax, b.BoundMax, relTol) &&
		a.ModelSaturated == b.ModelSaturated && a.ModelNA == b.ModelNA &&
		a.SimSaturated == b.SimSaturated &&
		a.BoundUnbounded == b.BoundUnbounded && a.BoundNA == b.BoundNA
}

// closeTo reports |a-b| <= relTol*|b|, with NaN equal to NaN and
// infinities equal to themselves.
func closeTo(a, b, relTol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Abs(b)
}

// timedEvaluator decorates a backend, recording the duration of every
// Evaluate call by scenario index.
type timedEvaluator struct {
	eval.Evaluator
	// ns has one slot per scenario: each is written by the one worker
	// that evaluates the cell and read after the Run has returned.
	ns []float64
}

func (t *timedEvaluator) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, error) {
	start := time.Now()
	pt, err := t.Evaluator.Evaluate(ctx, sc)
	t.ns[sc.Index] = float64(time.Since(start))
	return pt, err
}

// decoratedPass runs the spec once through a Runner whose backends are
// wrapped in timing decorators and returns, per backend name, the
// per-cell Evaluate nanoseconds (indexed like the returned scenarios).
func decoratedPass(ctx context.Context, spec sweep.Spec) (map[string][]float64, []sweep.Scenario, error) {
	scens, err := sweep.Expand(spec)
	if err != nil {
		return nil, nil, err
	}
	ab := eval.NewAnalyticBackend()
	backends := []eval.Evaluator{ab}
	if spec.WithSim {
		backends = append(backends, eval.NewSimBackend(ab))
	}
	for _, b := range spec.Backends {
		if b == sweep.BackendBounds {
			backends = append(backends, bounds.New(ab))
		}
	}
	timed := make([]*timedEvaluator, len(backends))
	wrapped := make([]eval.Evaluator, len(backends))
	for i, be := range backends {
		timed[i] = &timedEvaluator{Evaluator: be, ns: make([]float64, len(scens))}
		wrapped[i] = timed[i]
	}
	if _, err := sweep.NewRunner(sweep.WithBackends(wrapped...)).Run(ctx, spec); err != nil {
		return nil, nil, err
	}
	out := make(map[string][]float64, len(timed))
	for _, t := range timed {
		out[t.Name()] = t.ns
	}
	return out, scens, nil
}
