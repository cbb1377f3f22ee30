package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// layerSamples collects the samples of every per-layer metric by name.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, samples ...float64) {
	ls[name] = append(ls[name], samples...)
}

// each times every call f(0..n-1) on its own, reps times over, and
// returns the per-call nanoseconds. For calls of a microsecond or more;
// shorter ones go through timeOp, which amortises the clock reads.
func each(reps, n int, f func(i int)) []float64 {
	out := make([]float64, 0, reps*n)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			start := time.Now()
			f(i)
			out = append(out, float64(time.Since(start)))
		}
	}
	return out
}

// mallocs returns the heap allocations and bytes f makes.
func mallocs(f func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// point is one operating point of a fat-tree curve.
type point struct {
	m       *analytic.FatTreeModel
	lambda0 float64
}

// bftPoints resolves the base-variant fat-tree cells of a grid to model
// and message rate.
func bftPoints(spec sweep.Spec) ([]point, error) {
	scens, err := sweep.Expand(spec)
	if err != nil {
		return nil, err
	}
	ab := eval.NewAnalyticBackend()
	models := make(map[string]*analytic.FatTreeModel)
	var out []point
	for _, sc := range scens {
		if sc.Topology.Family != eval.FamilyBFT || !sc.Variant.IsBase() {
			continue
		}
		key := sc.CurveKey()
		if models[key] == nil {
			if models[key], err = analytic.NewFatTreeModel(sc.Topology.Size, float64(sc.MsgFlits), core.Options{}); err != nil {
				return nil, err
			}
		}
		load, err := ab.ResolveLoad(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, point{models[key], load / float64(sc.MsgFlits)})
	}
	return out, nil
}

// curves returns the distinct (topology, message length) pairs of a
// grid's family, in grid order.
func curves(spec sweep.Spec, family string) []eval.Scenario {
	var out []eval.Scenario
	for _, t := range spec.Topologies {
		if t.Family != family {
			continue
		}
		for _, size := range t.Sizes {
			for _, flits := range spec.MsgFlits {
				out = append(out, eval.Scenario{Topology: eval.Topology{Family: family, Size: size, K: t.K}, MsgFlits: flits})
			}
		}
	}
	return out
}

// mathProbes times the queueing, analytic and core layers on the
// operating points of the model and general grids.
func mathProbes(ls layerSamples, sz sizes) error {
	reps := sz.layerReps
	pts, err := bftPoints(sz.modelGrid)
	if err != nil {
		return err
	}
	xbar := make([]float64, len(pts))
	for i, p := range pts {
		lat, err := p.m.Latency(p.lambda0)
		if err != nil {
			return fmt.Errorf("math probes: %s at %v: %w", p.m.Name(), p.lambda0, err)
		}
		xbar[i] = lat.ServiceInj
	}
	var acc float64
	ls.add("queueing.wait_mgm_ns", timeOp(reps*20, len(pts), func(i int) {
		acc += queueing.WaitWormholeMGm(2, pts[i].lambda0, xbar[i], pts[i].m.MsgFlits())
	})...)
	ls.add("analytic.latency_us", scale(each(reps, len(pts), func(i int) {
		lat, _ := pts[i].m.Latency(pts[i].lambda0)
		acc += lat.Total
	}), 1e-3)...)
	n, _ := mallocs(func() {
		for _, p := range pts {
			lat, _ := p.m.Latency(p.lambda0)
			acc += lat.Total
		}
	})
	ls.add("analytic.latency_allocs", n/float64(len(pts)))

	bft := curves(sz.modelGrid, eval.FamilyBFT)
	ls.add("analytic.build_us", scale(each(reps*5, len(bft), func(i int) {
		m, _ := analytic.NewFatTreeModel(bft[i].Topology.Size, float64(bft[i].MsgFlits), core.Options{})
		acc += m.AvgDist()
	}), 1e-3)...)
	ls.add("analytic.saturation_us", scale(each(reps, len(bft), func(i int) {
		sat, _ := analytic.MustFatTreeModel(bft[i].Topology.Size, float64(bft[i].MsgFlits), core.Options{}).SaturationLoad()
		acc += sat
	}), 1e-3)...)

	gpts, err := bftPoints(sz.generalGrid)
	if err != nil {
		return err
	}
	ls.add("core.resolve_us", scale(each(reps, len(gpts), func(i int) {
		res, _ := gpts[i].m.BuildCoreModel(gpts[i].lambda0).Resolve(core.Options{})
		acc += res.ServiceTime[0]
	}), 1e-3)...)
	ls.add("bounds.compute_us", scale(each(reps, len(gpts), func(i int) {
		rep, _ := bounds.Compute(gpts[i].m, gpts[i].lambda0, 1)
		acc += rep.Total
	}), 1e-3)...)

	var satMS []float64
	for _, fam := range []struct{ family, metric string }{
		{eval.FamilyHypercube, "core.hypercube_latency_us"},
		{eval.FamilyTorus, "core.torus_latency_us"},
	} {
		for _, c := range curves(sz.generalGrid, fam.family) {
			m, err := c.Topology.NewModel(c.MsgFlits, core.Options{})
			if err != nil {
				return err
			}
			var sat float64
			satMS = append(satMS, scale(each(reps, 1, func(int) { sat, _ = m.SaturationLoad() }), 1e-6)...)
			fracs := sz.generalGrid.Loads.Points
			ls.add(fam.metric, scale(each(reps, fracs, func(i int) {
				load := sat * sz.generalGrid.Loads.MaxFrac * float64(i+1) / float64(fracs)
				lat, _ := m.Latency(load / float64(c.MsgFlits))
				acc += lat.Total
			}), 1e-3)...)
		}
	}
	ls.add("core.saturation_ms", satMS...)
	runtime.KeepAlive(acc)
	return nil
}

// evalProbes times scenario keys and the wire codecs on the model grid.
func evalProbes(ls layerSamples, sz sizes, sample eval.Point) error {
	scens, err := sweep.Expand(sz.modelGrid)
	if err != nil {
		return err
	}
	reps := sz.layerReps * 4
	var acc int
	ls.add("eval.key_ns", timeOp(reps, len(scens), func(i int) { acc += len(scens[i].Key()) })...)
	n, _ := mallocs(func() {
		for i := range scens {
			acc += len(scens[i].Key())
		}
	})
	ls.add("eval.key_allocs", n/float64(len(scens)))
	var jsonErr error
	ls.add("eval.scenario_json_ns", timeOp(reps, len(scens), func(i int) {
		data, err := json.Marshal(scens[i])
		var back eval.Scenario
		if err == nil {
			err = json.Unmarshal(data, &back)
		}
		if err != nil {
			jsonErr = err
		}
	})...)
	ls.add("eval.point_json_ns", timeOp(reps, len(scens), func(int) {
		data, err := json.Marshal(sample)
		var back eval.Point
		if err == nil {
			err = json.Unmarshal(data, &back)
		}
		if err != nil {
			jsonErr = err
		}
	})...)
	runtime.KeepAlive(acc)
	return jsonErr
}

// sweepProbes times grid expansion, the in-memory cache and the
// single-cell path the shards serve probes through.
func sweepProbes(ctx context.Context, ls layerSamples, sz sizes, rows []sweep.Row, probes []eval.Scenario) error {
	reps := sz.layerReps * 4
	var expandErr error
	ls.add("sweep.expand_ns_per_cell", scale(each(reps, 1, func(int) {
		if _, err := sweep.Expand(sz.modelGrid); err != nil {
			expandErr = err
		}
	}), 1/float64(len(rows)))...)
	if expandErr != nil {
		return expandErr
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Scenario.Key()
	}
	hits := 0
	for r := 0; r < reps; r++ {
		cache := sweep.NewCache()
		ls.add("sweep.cache_put_ns", timeOp(1, len(rows), func(i int) { cache.Put(keys[i], rows[i].Cell) })...)
		ls.add("sweep.cache_get_ns", timeOp(1, len(rows), func(i int) {
			if _, ok := cache.Get(keys[i]); ok {
				hits++
			}
		})...)
	}
	if hits != reps*len(rows) {
		return fmt.Errorf("sweep probes: %d cache hits, want %d", hits, reps*len(rows))
	}
	runner := shardRunner()
	for i := range probes { // memoize models and saturation anchors first
		if _, _, err := runner.Evaluate(ctx, probes[i]); err != nil {
			return err
		}
	}
	var evalErr error
	ls.add("sweep.evaluate_us", scale(each(sz.layerReps, len(probes), func(i int) {
		if _, _, err := runner.Evaluate(ctx, probes[i]); err != nil {
			evalErr = err
		}
	}), 1e-3)...)
	return evalErr
}

// simCell is one directly simulated cell of the sim grid.
type simCell struct {
	key  string
	cell eval.Point
}

// simConfig is the run SimBackend would make for the scenario.
func simConfig(sc eval.Scenario, net topology.Network, load float64) sim.Config {
	return sim.Config{
		Net: net, MsgFlits: sc.MsgFlits, Pattern: traffic.Uniform{},
		Seed: sc.Seed(), WarmupCycles: sc.Budget.Warmup, MeasureCycles: sc.Budget.Measure,
		DrainLimit: sc.Budget.DrainLimit, Policy: sc.Policy,
	}.FlitLoad(load)
}

// simProbes runs every cell of the sim grid straight through sim.Run —
// fixed windows, then the same cells with the default early-stopping
// rule, then a one-cycle run for the set-up cost — on one goroutine, so
// the figures are engine speed per core. It returns the cells for the
// calibration probes.
func simProbes(ctx context.Context, ls layerSamples, sz sizes, seed uint64) ([]simCell, error) {
	spec := sz.simGrid
	spec.Budget.Seed = seed
	scens, err := sweep.Expand(spec)
	if err != nil {
		return nil, err
	}
	ab := eval.NewAnalyticBackend()
	nets := make(map[eval.Topology]topology.Network)
	var buildMS []float64
	for r := 0; r < sz.layerReps; r++ {
		start := time.Now()
		if _, err := topology.NewFatTree(1024); err != nil {
			return nil, err
		}
		buildMS = append(buildMS, ms(time.Since(start)))
	}
	ls.add("topology.fattree1024_build_ms", buildMS...)

	type tally struct{ cycles, seconds float64 }
	var all, lo, hi tally
	var hops, msgs, measured, stopMeasured float64
	var saturated int
	var maxErr float64
	var cells []simCell
	var configs []sim.Config
	before := obs.Counters()
	var allocs, allocBytes float64
	for _, sc := range scens {
		if nets[sc.Topology] == nil {
			if nets[sc.Topology], err = sc.Topology.NewNetwork(); err != nil {
				return nil, err
			}
		}
		load, err := ab.ResolveLoad(sc)
		if err != nil {
			return nil, err
		}
		cfg := simConfig(sc, nets[sc.Topology], load)
		configs = append(configs, cfg)

		var res *sim.Result
		var elapsed time.Duration
		n, b := mallocs(func() {
			start := time.Now()
			res, err = sim.Run(ctx, cfg)
			elapsed = time.Since(start)
		})
		if err != nil {
			return nil, fmt.Errorf("sim probes: %s load %v: %w", sc.CurveKey(), sc.Load.Value, err)
		}
		allocs, allocBytes = allocs+n, allocBytes+b
		ls.add("sim.run_ms", ms(elapsed))
		t := tally{float64(res.Cycles), elapsed.Seconds()}
		all = tally{all.cycles + t.cycles, all.seconds + t.seconds}
		if sc.Load.Frac && sc.Load.Value <= 0.5 {
			lo = tally{lo.cycles + t.cycles, lo.seconds + t.seconds}
		} else {
			hi = tally{hi.cycles + t.cycles, hi.seconds + t.seconds}
		}
		for _, busy := range res.ChannelBusy {
			hops += busy * float64(res.MeasuredCycles)
		}
		msgs += float64(res.TotalCompleted)
		measured += float64(res.MeasuredCycles)
		if res.Saturated {
			saturated++
		}
		model, err := ab.Evaluate(ctx, sc)
		if err != nil {
			return nil, err
		}
		pt := model
		pt.Sim, pt.SimCI, pt.SimSaturated, pt.SimPrecision = res.LatencyMean, res.LatencyCI95, res.Saturated, res.Precision
		if e := relErr(pt); e > maxErr {
			maxErr = e
		}
		cells = append(cells, simCell{key: sc.Key(), cell: pt})
	}
	after := obs.Counters()
	popped := float64(after["sim_events_popped_total"] - before["sim_events_popped_total"])
	skipped := float64(after["sim_idle_cycles_skipped_total"] - before["sim_idle_cycles_skipped_total"])
	runs := float64(len(scens))
	ls.add("sim.cycles", all.cycles)
	ls.add("sim.cycles_per_s", all.cycles/all.seconds)
	ls.add("sim.lo.cycles_per_s", lo.cycles/lo.seconds)
	ls.add("sim.hi.cycles_per_s", hi.cycles/hi.seconds)
	ls.add("sim.flit_hops_per_s", hops/all.seconds)
	ls.add("sim.msgs_per_s", msgs/all.seconds)
	ls.add("sim.events_popped", popped)
	ls.add("sim.idle_cycles_skipped", skipped)
	ls.add("sim.idle_skip_ratio", skipped/all.cycles)
	ls.add("sim.saturated_cells", float64(saturated))
	ls.add("sim.model_max_rel_err", maxErr)
	ls.add("sim.allocs_per_run", allocs/runs)
	ls.add("sim.alloc_bytes_per_run", allocBytes/runs)

	for i, cfg := range configs {
		start := time.Now()
		res, err := sim.Run(ctx, cfg, sim.WithTermination(sim.DefaultTermination))
		if err != nil {
			return nil, fmt.Errorf("sim probes: early stop, cell %d: %w", i, err)
		}
		ls.add("sim.earlystop.run_ms", ms(time.Since(start)))
		stopMeasured += float64(res.MeasuredCycles)

		cfg.WarmupCycles, cfg.MeasureCycles = 0, 1
		start = time.Now()
		if _, err := sim.Run(ctx, cfg); err != nil {
			return nil, fmt.Errorf("sim probes: set-up run, cell %d: %w", i, err)
		}
		ls.add("sim.setup_us", us(time.Since(start)))
	}
	ls.add("sim.earlystop.measured_cycles", stopMeasured)
	ls.add("sim.earlystop.saved_ratio", 1-stopMeasured/measured)
	return cells, nil
}

// storeProbes writes the rows to a fresh on-disk store, closes it,
// reopens it and reads every cell back.
func storeProbes(ls layerSamples, sz sizes, tmpRoot string, rows []sweep.Row) error {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Scenario.Key()
	}
	once := func() error {
		dir, err := os.MkdirTemp(tmpRoot, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		ls.add("store.put_us", scale(timeOp(1, len(rows), func(i int) { st.Put(keys[i], rows[i].Cell) }), 1e-3)...)
		start := time.Now()
		if err := st.Close(); err != nil {
			return err
		}
		ls.add("store.close_flush_ms", ms(time.Since(start)))

		start = time.Now()
		st, err = store.Open(dir)
		if err != nil {
			return err
		}
		replay := time.Since(start)
		ls.add("store.open_replay_ms", ms(replay))
		ls.add("store.replay_cells_per_s", float64(st.Recovered())/replay.Seconds())
		disk, err := st.DiskBytes()
		if err != nil {
			return err
		}
		ls.add("store.disk_bytes_per_cell", float64(disk)/float64(len(rows)))
		ls.add("store.get_ns", timeOp(1, len(rows), func(i int) { st.Get(keys[i]) })...)
		return st.Close()
	}
	for r := 0; r < sz.layerReps; r++ {
		if err := once(); err != nil {
			return err
		}
	}
	return nil
}

// calibProbes feeds the simulated cells to fresh calibration maps, one
// cell at a time and then mined from a cache holding them.
func calibProbes(ctx context.Context, ls layerSamples, sz sizes, cells []simCell) {
	cache := sweep.NewCache()
	for _, c := range cells {
		cache.Put(c.key, c.cell)
	}
	for r := 0; r < sz.layerReps*4; r++ {
		m := calib.NewMap()
		ls.add("calib.observe_us", scale(each(1, len(cells), func(i int) {
			m.ObserveCell(ctx, cells[i].key, cells[i].cell)
		}), 1e-3)...)
		m = calib.NewMap()
		start := time.Now()
		m.Mine(ctx, cache)
		ls.add("calib.mine_cells_per_s", float64(len(cells))/time.Since(start).Seconds())
	}
}

// obsProbes times a span on the disabled path, which every layer pays
// on every cell of an untraced run.
func obsProbes(ls layerSamples, sz sizes) {
	ctx := context.Background()
	ls.add("obs.disabled_span_ns", timeOp(sz.layerReps*4, 100000, func(int) {
		_, span := obs.StartSpanKeyed(ctx, "bench.disabled", "key")
		span.End()
	})...)
}

// fleetProbes times the two per-cell client transports against the
// untraced fleet: RemoteBackend round trips, and one BatchBackend
// request carrying the whole model grid.
func fleetProbes(ctx context.Context, ls layerSamples, f *fleetInstance) error {
	rb, err := eval.NewRemoteBackend(f.addrs)
	if err != nil {
		return err
	}
	var callErr error
	ls.add("eval.remote_rtt_us", scale(each(f.env.sz.layerReps, len(f.probes), func(i int) {
		if _, err := rb.Evaluate(ctx, f.probes[i]); err != nil {
			callErr = err
		}
	}), 1e-3)...)
	if callErr != nil {
		return callErr
	}
	bb, err := eval.NewBatchBackend(f.addrs)
	if err != nil {
		return err
	}
	scens := make([]eval.Scenario, len(f.refRows))
	for i, r := range f.refRows {
		scens[i] = r.Scenario
	}
	for r := 0; r < f.env.sz.layerReps; r++ {
		start := time.Now()
		pts, err := bb.EvaluateBatch(ctx, scens)
		if err != nil {
			return err
		}
		ls.add("eval.batch_cells_per_s", float64(len(pts))/time.Since(start).Seconds())
	}
	return nil
}

// recordedFleet derives the serve, dispatch and plan metrics from what
// the traced fleet's decorators recorded.
func recordedFleet(ls layerSamples, rec *fleetRecorder, cells int, passes []passStats) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	in := func(iv interval, phases []interval) int {
		for i, p := range phases {
			if iv.start >= p.start && iv.start < p.end {
				return i
			}
		}
		return -1
	}
	durs := func(reqs []request, path string, phases []interval) []float64 {
		var out []float64
		for _, r := range reqs {
			if r.path == path && (phases == nil || in(r.iv, phases) >= 0) {
				out = append(out, float64(r.iv.end-r.iv.start))
			}
		}
		return out
	}
	a, c, d := rec.phases["a"], rec.phases["c"], rec.phases["d"]

	partReqs := durs(rec.reqs, "/v1/sweep/part", a)
	ls.add("serve.part_req_ms", scale(partReqs, 1e-6)...)
	ls.add("serve.part_cells_per_req", float64(cells*len(a))/float64(len(partReqs)))
	evalReqs := scale(durs(rec.reqs, "/v1/eval", c), 1e-3)
	ls.add("serve.eval_req_us", evalReqs...)
	ls.add("serve.curve_req_us", scale(durs(rec.reqs, "/v1/curve", nil), 1e-3)...)
	var busy, wall float64
	fivexx := 0
	for _, r := range rec.reqs {
		busy += float64(r.iv.end - r.iv.start)
		if r.status >= 500 {
			fivexx++
		}
	}
	var probeUS []float64
	for _, p := range passes {
		wall += float64(p.wall)
		for _, pr := range p.probes {
			probeUS = append(probeUS, us(pr))
		}
	}
	ls.add("serve.busy_ratio", busy/(wall*2))
	ls.add("serve.http_5xx", float64(fivexx))

	// Per pass: the cold Run's wall minus the time any request of its
	// was in flight, bytes on the wire, and the busiest shard over the
	// idlest.
	tripsBy := make([][]request, len(a))
	for _, t := range rec.trips {
		if i := in(t.iv, a); i >= 0 {
			tripsBy[i] = append(tripsBy[i], t)
		}
	}
	for i, trips := range tripsBy {
		ivs := make([]interval, len(trips))
		perHost := make(map[string]float64)
		var respBytes float64
		for j, t := range trips {
			ivs[j] = t.iv
			if t.path == "/v1/sweep/part" {
				perHost[t.host] += float64(t.iv.end - t.iv.start)
				respBytes += float64(t.respBytes)
				ls.add("dispatch.req_bytes_per_range", float64(t.reqBytes))
			}
		}
		self := a[i].end - a[i].start - unionLen(ivs, a[i].start, a[i].end)
		ls.add("dispatch.run_self_us_per_cell", float64(self)/1e3/float64(cells))
		ls.add("dispatch.resp_bytes_per_cell", respBytes/float64(cells))
		lo, hi := math.Inf(1), 0.0
		for _, v := range perHost {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		ls.add("dispatch.shard_skew", hi/lo)
	}
	var requeues, failures float64
	for _, p := range passes {
		ls.add("dispatch.ranges_per_run", float64(p.fleet.ranges))
		requeues += float64(p.fleet.requeues)
		failures += float64(p.fleet.shardFailures)
	}
	ls.add("dispatch.requeues", requeues)
	ls.add("dispatch.shard_failures", failures)
	probeMed, _, _ := summarize(probeUS)
	evalMed, _, _ := summarize(evalReqs)
	ls.add("dispatch.wire_overhead_us", probeMed-evalMed)

	// Planner: per plan, its wall minus the time it spent inside its
	// engine; the engine's calls by kind.
	callsBy := make([][]request, len(d))
	for _, call := range rec.engine {
		if i := in(call.iv, d); i >= 0 {
			callsBy[i] = append(callsBy[i], call)
		}
	}
	for i, calls := range callsBy {
		ivs := make([]interval, len(calls))
		var certify float64
		for j, call := range calls {
			ivs[j] = call.iv
			if call.path == "sim" {
				certify += float64(call.iv.end - call.iv.start)
			}
		}
		wall := d[i].end - d[i].start
		ls.add("plan.run_ms", float64(wall)/1e6)
		ls.add("plan.self_ms", float64(wall-unionLen(ivs, d[i].start, d[i].end))/1e6)
		ls.add("plan.certify_ms", certify/1e6)
	}
	ls.add("plan.engine_run_ms", scale(durs(rec.engine, "run", d), 1e-6)...)
	ls.add("plan.engine_evaluate_us", scale(durs(rec.engine, "eval", d), 1e-3)...)
}
