package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// config is one invocation of the ledger.
type config struct {
	// workload selects one workload; empty runs all four.
	workload string
	seed     uint64
	// seconds is the length of each untraced timed phase; zero runs
	// exactly one pass (smoke).
	seconds float64
	// trace adds the traced phase and the layer probes. It always covers
	// all four workloads, because every per-layer metric is reported by
	// every traced run.
	trace  bool
	smoke  bool
	outDir string
	// updateGolden rewrites the goldens into this directory.
	updateGolden string
	corrupt      bool
}

var workloadWhy = map[string]string{
	wlModel:   "2,560 model-only fat-tree cells, cold Run then warm Run: the math is a few us per cell, so eval keys and memo and sweep expand, pool and cache do most of the work; sim, store and wire do none",
	wlGeneral: "512 cells through the general core solver and the bounds calculus: fixed points, Eq. 26 saturation searches and bounds.Compute dominate and plumbing is a few percent, the reverse of model-sweep",
	wlSim:     "builtin:figure3 with fixed windows, the paper's headline figure: nearly all the time is the simulator, from idle-skip to arbitration-bound loads; fixed cycles, so it measures engine speed",
	wlFleet:   "the model grid through two HTTP shards, a dispatcher and an on-disk store, then close, replay, 256 per-cell probes and one plan: eval clients and JSON, serve, dispatch and store dominate",
}

// provenance says where and how a result was measured.
type provenance struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	Time       string  `json:"time"`
}

// workloadResult is one workload's share of a result.
type workloadResult struct {
	Name   string `json:"name"`
	Why    string `json:"why"`
	Passes int    `json:"passes"`
	// Rows are the workload metrics (ledger.go), from set-up and the
	// untraced timed phase.
	Rows []row `json:"rows"`
	// The traced phase, when there was one.
	TraceOverheadPct float64       `json:"trace_overhead_pct,omitempty"`
	SpansPerCell     float64       `json:"spans_per_cell,omitempty"`
	Trace            *traceSummary `json:"trace,omitempty"`
}

// result is what one invocation measured; bench/out/result.json holds
// it, and -append adds it to the history.
type result struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
	Layers     []row            `json:"layers,omitempty"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Correct    bool             `json:"correct"`
	Problems   []string         `json:"problems,omitempty"`
}

func (r *result) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// run measures what cfg asks for.
func run(ctx context.Context, cfg config) (*result, error) {
	if !cfg.smoke && runtime.NumCPU() < 2 {
		return nil, fmt.Errorf("bench: %d CPU available; the ledger is recorded at GOMAXPROCS=2 and refuses to record on less", runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	selected := workloadOrder
	if cfg.workload != "" {
		if workloadWhy[cfg.workload] == "" {
			return nil, fmt.Errorf("bench: unknown workload %q (have %s)", cfg.workload, strings.Join(workloadOrder, ", "))
		}
		selected = []string{cfg.workload}
	}
	toRun := selected
	if cfg.trace {
		toRun = workloadOrder
	}

	tmpRoot := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpRoot)
	e := &env{seed: cfg.seed, tmpRoot: tmpRoot, corrupt: cfg.corrupt, updateGolden: cfg.updateGolden}
	e.sz = fullSizes()
	if cfg.smoke {
		e.sz = smokeSizes()
	}
	e.golden = !cfg.smoke && cfg.seed == 1

	res := &result{Provenance: provenance{
		Commit: commit(), Go: runtime.Version(), CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.trace, Smoke: cfg.smoke, Time: time.Now().UTC().Format(time.RFC3339),
	}}
	ls := make(layerSamples)
	h := &harness{cfg: cfg, env: e, res: res, ls: ls}
	for _, name := range toRun {
		if err := h.runWorkload(ctx, name); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		if err := h.layerProbes(ctx); err != nil {
			return nil, err
		}
		// One name, four workloads: report the selection's worst overhead
		// and its spans over its units of work.
		overhead := math.Inf(-1)
		var spans, units float64
		for _, name := range selected {
			w := res.workload(name)
			overhead = math.Max(overhead, w.TraceOverheadPct)
			spans += float64(w.Trace.Spans)
			units += w.Trace.units
		}
		ls.add("obs.trace_overhead_pct", overhead)
		ls.add("obs.spans_per_cell", spans/units)
		ls.add("fail_ratio", float64(res.Failed)/float64(res.Attempted))
		if err := h.finishLayers(); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// harness carries one invocation's state across workloads.
type harness struct {
	cfg config
	env *env
	res *result
	ls  layerSamples
	// Kept from the workloads for the layer probes that reuse them.
	modelRows []sweep.Row
	probes    []eval.Scenario
}

func (h *harness) build(name string, tracer *obs.Tracer, rec *fleetRecorder) (instance, passStats, error) {
	sz := h.env.sz
	switch name {
	case wlModel:
		return newSweepInstance(h.env, name, sz.modelGrid, true)
	case wlGeneral:
		return newSweepInstance(h.env, name, sz.generalGrid, false)
	case wlSim:
		return newSweepInstance(h.env, name, sz.simGrid, false)
	default:
		return newFleetInstance(h.env, tracer, rec)
	}
}

func (h *harness) count(st passStats) {
	h.res.Attempted += st.attempted
	h.res.Failed += st.failed
}

// setUp builds an instance and runs its fixed warm-up passes.
func (h *harness) setUp(ctx context.Context, name string, tracer *obs.Tracer, rec *fleetRecorder) (instance, error) {
	inst, st, err := h.build(name, tracer, rec)
	if err != nil {
		return nil, err
	}
	h.count(st)
	for i := 0; i < h.env.sz.warmups[name]; i++ {
		st, err := inst.pass(ctx)
		if err != nil {
			inst.close()
			return nil, err
		}
		h.count(st)
	}
	return inst, nil
}

func (h *harness) runWorkload(ctx context.Context, name string) error {
	sz := h.env.sz
	wr := workloadResult{Name: name, Why: workloadWhy[name]}

	// Set-up, several times over where setup_s is reported (a workload
	// that runs only because the run is traced sets up once). setup_s is
	// the fastest of them: interference from outside the process only
	// ever adds time, and the fastest set-up moved least between runs.
	reps := 1
	if h.cfg.workload == "" || h.cfg.workload == name {
		reps = sz.setupReps
	}
	var inst instance
	setupS := math.Inf(1)
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = h.setUp(ctx, name, nil, nil); err != nil {
			return err
		}
		setupS = math.Min(setupS, time.Since(start).Seconds())
	}
	defer func() { inst.close() }()

	// Untraced timed phase.
	var passes []passStats
	var units float64
	var passErr error
	runtime.GC()
	allocs, allocBytes := mallocs(func() {
		start := time.Now()
		for len(passes) == 0 || time.Since(start).Seconds() < h.cfg.seconds {
			st, err := inst.pass(ctx)
			if err != nil {
				passErr = err
				return
			}
			h.count(st)
			units += float64(st.attempted)
			passes = append(passes, st)
		}
	})
	if passErr != nil {
		return passErr
	}
	wr.Passes = len(passes)
	samples := map[string][]float64{
		"setup_s":              {setupS},
		"allocs_per_cell":      {allocs / units},
		"alloc_bytes_per_cell": {allocBytes / units},
	}
	for _, p := range passes {
		add := func(name string, v float64) { samples[name] = append(samples[name], v) }
		add("cells_per_s", float64(p.coldCells)/p.cold.Seconds())
		add("pass_ms", ms(p.wall))
		if p.warmCells > 0 {
			add("warm_cells_per_s", float64(p.warmCells)/p.warm.Seconds())
		}
		for _, pr := range p.probes {
			add("probe_p50_ms", ms(pr))
		}
		add("plan_p50_ms", ms(p.plan))
		add("model_sim_mape", p.mape)
	}
	// The highest percentile with ten samples beyond it, over every probe
	// of the run (the probe_p50_ms row states how many).
	samples["probe_p99_ms"] = []float64{percentile(samples["probe_p50_ms"], 99)}
	for _, def := range workloadMetrics {
		if def.appliesTo(name) {
			wr.Rows = append(wr.Rows, newRow(def, samples[def.name]))
		}
	}
	h.layerCounters(name, inst, passes)

	if h.cfg.trace {
		if f, ok := inst.(*fleetInstance); ok {
			if err := fleetProbes(ctx, h.ls, f); err != nil {
				return err
			}
		}
		if err := h.tracedPhase(ctx, name, &wr, inst); err != nil {
			return err
		}
	}
	h.res.Workloads = append(h.res.Workloads, wr)
	return nil
}

// layerCounters files what the layer probes reuse from the workload and
// the counters read off its passes' own objects.
func (h *harness) layerCounters(name string, inst instance, passes []passStats) {
	ls := h.ls
	switch w := inst.(type) {
	case *sweepInstance:
		switch name {
		case wlModel:
			h.modelRows = w.ref
		case wlGeneral:
			bounded, attempted := 0.0, 0.0
			for _, r := range w.ref {
				if r.BoundNA {
					continue
				}
				attempted++
				if !r.BoundUnbounded && !math.IsNaN(r.BoundMax) {
					bounded++
				}
			}
			ls.add("bounds.bounded_ratio", bounded/attempted)
		}
	case *fleetInstance:
		h.probes = w.probes
	}
	for _, p := range passes {
		switch name {
		case wlModel:
			ls.add("sweep.cache_hit_ratio", p.cacheHitRatio)
		case wlFleet:
			fc := p.fleet
			ls.add("store.hit_ratio", float64(fc.storeHits)/float64(fc.storeHits+fc.storeMisses))
			ls.add("store.dropped", float64(fc.storeDropped))
			ls.add("dispatch.warm_hit_ratio", float64(fc.warmHits)/float64(p.warmCells))
			ls.add("plan.coarse_cells", float64(fc.planStats.CoarseCells))
			ls.add("plan.probes", float64(fc.planStats.Probes))
			ls.add("plan.sim_evals", float64(fc.planStats.SimEvals))
		}
	}
}

// tracedPhase sets the workload up again with the repo's own spans
// switched on (and, for the fleet, the decorators in place), runs the
// fixed number of traced passes, and reads the spans back. Each traced
// pass is paired with an untraced one run right before it: the box's
// speed drifts by tens of percent over minutes, so tracing overhead is
// the median over adjacent pairs, not the difference of two phases.
func (h *harness) tracedPhase(ctx context.Context, name string, wr *workloadResult, untraced instance) error {
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	tctx := obs.WithTracer(ctx, tracer)
	var rec *fleetRecorder
	if name == wlFleet {
		rec = &fleetRecorder{}
		// Every client in the repo falls back to http.DefaultTransport,
		// so decorating it sees range, curve and eval round trips alike.
		base := http.DefaultTransport
		http.DefaultTransport = rec.transport(base)
		defer func() { http.DefaultTransport = base }()
	}
	inst, err := h.setUp(tctx, name, tracer, rec)
	if err != nil {
		return err
	}
	defer inst.close()
	buf.Reset() // drop the warm-up passes' spans
	if rec != nil {
		rec.reset()
	}

	runtime.GC()
	var passes []passStats
	var slowdown []float64
	var wall time.Duration
	var units float64
	for i := 0; i < h.env.sz.traced[name]; i++ {
		plain, err := untraced.pass(ctx)
		if err != nil {
			return err
		}
		h.count(plain)
		st, err := inst.pass(tctx)
		if err != nil {
			return err
		}
		h.count(st)
		passes = append(passes, st)
		slowdown = append(slowdown, st.cold.Seconds()/plain.cold.Seconds())
		wall += st.wall
		units += float64(st.attempted)
	}
	if err := tracer.Close(); err != nil {
		return err
	}
	if !h.cfg.smoke {
		if err := os.WriteFile(filepath.Join(h.cfg.outDir, "trace-"+name+".ndjson"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		return err
	}
	sum := attribute(events, len(passes), us(wall))
	wr.Trace = &sum
	ratio, _, _ := summarize(slowdown)
	wr.TraceOverheadPct = 100 * (ratio - 1)
	sum.units = units
	wr.SpansPerCell = float64(sum.Spans) / units
	if math.Abs(sum.SumRatio-1) > 0.05 {
		h.res.Problems = append(h.res.Problems, fmt.Sprintf("%s: spans cover %.1f%% of the traced wall time, want within 5%% of it", name, 100*sum.SumRatio))
	}

	if rec != nil {
		recordedFleet(h.ls, rec, inst.cells(), passes)
		return nil
	}
	if name == wlModel {
		// Two Runs per pass, cold and warm.
		h.ls.add("sweep.run_self_us_per_cell", sum.selfUS["sweep.run"]/float64(2*inst.cells()*len(passes)))
	}
	return h.decorated(ctx, name, inst.(*sweepInstance).spec)
}

// decorated runs one more pass with timing decorators around the
// backends, for the eval layer's per-call figures.
func (h *harness) decorated(ctx context.Context, name string, spec sweep.Spec) error {
	ns, scens, err := decoratedPass(ctx, spec)
	if err != nil {
		return err
	}
	switch name {
	case wlModel:
		h.ls.add("eval.analytic_evaluate_us", scale(ns["analytic"], 1e-3)...)
	case wlSim:
		h.ls.add("eval.sim_evaluate_ms", scale(ns["sim"], 1e-6)...)
	case wlGeneral:
		// Only fat-tree cells reach the calculus; the rest answer
		// bound_na at once.
		var model, bound []float64
		for i, sc := range scens {
			if sc.Topology.Family == eval.FamilyBFT {
				model = append(model, ns["analytic"][i])
				bound = append(bound, ns["bounds"][i])
			}
		}
		h.ls.add("eval.bounds_evaluate_us", scale(bound, 1e-3)...)
		boundMed, _, _ := summarize(bound)
		modelMed, _, _ := summarize(model)
		h.ls.add("bounds.over_model_ratio", boundMed/modelMed)
	}
	return nil
}

// layerProbes times the layers directly, on the workloads' own inputs.
func (h *harness) layerProbes(ctx context.Context) error {
	sz := h.env.sz
	if err := mathProbes(h.ls, sz); err != nil {
		return err
	}
	if err := evalProbes(h.ls, sz, h.modelRows[0].Cell); err != nil {
		return err
	}
	if err := sweepProbes(ctx, h.ls, sz, h.modelRows, h.probes); err != nil {
		return err
	}
	cells, err := simProbes(ctx, h.ls, sz, h.env.seed)
	if err != nil {
		return err
	}
	if err := storeProbes(h.ls, sz, h.env.tmpRoot, h.modelRows); err != nil {
		return err
	}
	calibProbes(ctx, h.ls, sz, cells)
	obsProbes(h.ls, sz)
	return nil
}

// finishLayers turns the collected samples into the per-layer rows,
// checks the required readings and — at the golden seed — the exact
// counts.
func (h *harness) finishLayers() error {
	counts := make(map[string]float64)
	for _, def := range layerMetrics {
		samples := h.ls[def.name]
		if len(samples) == 0 {
			return fmt.Errorf("bench: per-layer metric %s was not measured", def.name)
		}
		r := newRow(def, samples)
		if math.IsNaN(r.Median) || math.IsInf(r.Median, 0) {
			return fmt.Errorf("bench: per-layer metric %s = %v, want a finite value", def.name, r.Median)
		}
		h.res.Layers = append(h.res.Layers, r)
		counts[def.name] = r.Median
		if want, ok := invariants[def.name]; ok {
			for _, v := range samples {
				if v != want {
					h.res.Problems = append(h.res.Problems, fmt.Sprintf("%s = %v, must be %v", def.name, v, want))
					break
				}
			}
		}
		delete(h.ls, def.name)
	}
	for name := range h.ls {
		return fmt.Errorf("bench: measured %s, which the ledger does not declare", name)
	}
	for _, r := range h.res.workload(wlSim).Rows {
		counts["sf."+r.Name] = r.Median
	}
	if h.env.golden {
		rows := make([]goldenRow, len(exactCounts))
		for i, name := range exactCounts {
			rows[i] = goldenRow{key: name, tight: []float64{counts[name]}, sim: math.NaN(), ci: math.NaN()}
		}
		bad, err := h.env.checkGolden("counts", rows)
		if err != nil {
			return err
		}
		h.res.Attempted += len(rows)
		h.res.Failed += bad
	}
	return nil
}

// commit identifies the measured tree: git's HEAD, marked when the
// working tree differs from it ("go run" leaves no VCS stamp in the
// binary to read instead). Outside a git checkout it is "unknown".
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(status) > 0 {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
