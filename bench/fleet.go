package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// fleetCounters are read off one fleet-session pass's own store and
// dispatchers.
type fleetCounters struct {
	ranges, requeues, shardFailures int64 // phase (a) dispatcher
	warmHits                        int64 // phase (b) dispatcher
	storeHits, storeMisses          int64 // reopened store, after phase (b)
	storeDropped                    int
	planStats                       plan.Stats
}

// fleetInstance is the fleet-session workload: two in-process shards
// behind httptest, a dispatcher per pass over a fresh on-disk store.
type fleetInstance struct {
	env      *env
	grid     sweep.Spec
	planSpec plan.Spec
	probes   []eval.Scenario

	refRows   []sweep.Row
	refProbes []eval.Point
	refPlan   *plan.Result

	servers []*httptest.Server
	addrs   []string
	rec     *fleetRecorder // nil in the untraced fleet
}

// shardRunner builds a Runner the way serve.New does, so in-process
// references and layer probes take the path the shards take.
func shardRunner() *sweep.Runner {
	ab := eval.NewAnalyticBackend()
	return sweep.NewRunner(
		sweep.WithWorkers(1),
		sweep.WithBackends(ab, eval.NewSimBackend(ab), bounds.New(ab)),
	)
}

// newFleetInstance builds inputs from the seed, the in-process
// references the dispatched outputs must equal, and the fleet. A
// non-nil tracer and recorder make it the traced fleet.
func newFleetInstance(e *env, tracer *obs.Tracer, rec *fleetRecorder) (*fleetInstance, passStats, error) {
	f := &fleetInstance{env: e, grid: e.sz.modelGrid, rec: rec}
	var st passStats
	var err error
	if f.planSpec, err = plan.Builtin(e.sz.planName); err != nil {
		return nil, st, err
	}
	if e.sz.planFlits != nil {
		f.planSpec.Space.MsgFlits = e.sz.planFlits
	}
	f.planSpec.Budget = e.sz.planSim
	f.planSpec.Budget.Seed = e.seed

	rng := rand.New(rand.NewSource(int64(e.seed)))
	topo := f.grid.Topologies[0]
	for i := 0; i < e.sz.probes; i++ {
		f.probes = append(f.probes, eval.Scenario{
			Index:    i,
			Topology: eval.Topology{Family: topo.Family, Size: topo.Sizes[rng.Intn(len(topo.Sizes))]},
			MsgFlits: f.grid.MsgFlits[rng.Intn(len(f.grid.MsgFlits))],
			Load:     eval.Load{Frac: true, Value: 0.05 + 0.9*rng.Float64()},
		})
	}

	ctx := context.Background()
	local := shardRunner()
	res, err := local.Run(ctx, f.grid)
	if err != nil {
		return nil, st, fmt.Errorf("%s: in-process reference: %w", wlFleet, err)
	}
	f.refRows = res.Rows
	probeGolden := make([]goldenRow, len(f.probes))
	for i, sc := range f.probes {
		pt, _, err := local.Evaluate(ctx, sc)
		if err != nil {
			return nil, st, fmt.Errorf("%s: reference probe %d: %w", wlFleet, i, err)
		}
		f.refProbes = append(f.refProbes, pt)
		probeGolden[i] = goldenRow{key: fmt.Sprintf("probe#%d", i), tight: []float64{pt.LoadFlits, pt.Model}, sim: pt.Sim, ci: pt.SimCI}
	}
	if f.refPlan, err = plan.NewLocal(nil).Run(ctx, f.planSpec); err != nil {
		return nil, st, fmt.Errorf("%s: in-process plan: %w", wlFleet, err)
	}
	st.attempted = len(f.refRows) + len(f.refProbes) + 1
	if e.golden {
		planGolden := make([]goldenRow, len(f.refPlan.Frontier))
		for i, c := range f.refPlan.Frontier {
			planGolden[i] = goldenRow{key: c.Key(), tight: []float64{c.Cost, c.MaxLoad, c.OperatingLoad, c.Latency}, sim: c.Sim, ci: c.SimCI}
		}
		for name, rows := range map[string][]goldenRow{
			// The grid is model-sweep's, so its golden serves here too.
			wlModel:        goldenRows(f.refRows),
			"fleet-probes": probeGolden,
			"fleet-plan":   planGolden,
		} {
			bad, err := e.checkGolden(name, rows)
			if err != nil {
				return nil, st, err
			}
			st.failed += bad
		}
	}

	for i := 0; i < 2; i++ {
		opts := []serve.Option{serve.WithWorkers(1)}
		if tracer != nil {
			opts = append(opts, serve.WithTracer(tracer))
		}
		var h http.Handler = serve.New(opts...)
		if rec != nil {
			h = rec.handler(h)
		}
		srv := httptest.NewServer(h)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.URL)
	}
	return f, st, nil
}

func (f *fleetInstance) cells() int { return len(f.refRows) }

func (f *fleetInstance) close() {
	for _, s := range f.servers {
		s.Close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (f *fleetInstance) pass(ctx context.Context) (st passStats, err error) {
	dir, err := os.MkdirTemp(f.env.tmpRoot, "store-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	fail := func(what string, err error) (passStats, error) {
		return st, fmt.Errorf("%s: %s: %w", wlFleet, what, err)
	}
	phase := func(name string, start int64) {
		if f.rec != nil {
			f.rec.addPhase(name, interval{start, since()})
		}
	}

	ctx, root := obs.StartSpan(ctx, "bench.pass")
	defer root.End()
	begin := time.Now()

	// The store emits no spans of its own, so the harness brackets its
	// calls into it.
	openStore := func(ctx context.Context) (*store.Store, error) {
		_, span := obs.StartSpan(ctx, "store.open")
		defer span.End()
		return store.Open(dir)
	}

	// (a) cold dispatched sweep into a fresh store.
	st1, err := openStore(ctx)
	if err != nil {
		return fail("open store", err)
	}
	d1, err := dispatch.New(f.addrs, dispatch.WithCache(st1))
	if err != nil {
		st1.Close()
		return fail("dispatcher", err)
	}
	actx, span := obs.StartSpan(ctx, "bench.cold")
	t0, p0 := time.Now(), since()
	resA, err := d1.Run(actx, f.grid)
	st.cold = time.Since(t0)
	span.End()
	phase("a", p0)
	if err != nil {
		st1.Close()
		return fail("cold run", err)
	}
	st.coldCells = len(resA.Rows)
	ds := d1.Stats()
	st.fleet.ranges, st.fleet.requeues, st.fleet.shardFailures = ds.Batches, ds.Requeues, ds.ShardFailures

	// (b) close, reopen (replay), run again: every cell a coordinator hit.
	bctx, span := obs.StartSpan(ctx, "bench.warm")
	t0, p0 = time.Now(), since()
	_, closeSpan := obs.StartSpan(bctx, "store.close")
	err = st1.Close()
	closeSpan.End()
	if err != nil {
		span.End()
		return fail("close store", err)
	}
	st2, err := openStore(bctx)
	if err != nil {
		span.End()
		return fail("reopen store", err)
	}
	defer st2.Close()
	d2, err := dispatch.New(f.addrs, dispatch.WithCache(st2))
	if err != nil {
		span.End()
		return fail("dispatcher", err)
	}
	resB, err := d2.Run(bctx, f.grid)
	st.warm = time.Since(t0)
	span.End()
	phase("b", p0)
	if err != nil {
		return fail("warm run", err)
	}
	st.warmCells = len(resB.Rows)
	st.fleet.warmHits = d2.Stats().CacheHits
	st.fleet.storeHits, st.fleet.storeMisses = st2.Stats()
	st.fleet.storeDropped = st2.Dropped()

	// (c) off-grid probes, one closed-loop caller.
	pctx, span := obs.StartSpan(ctx, "bench.probes")
	p0 = since()
	got := make([]eval.Point, len(f.probes))
	st.probes = make([]time.Duration, len(f.probes))
	for i, sc := range f.probes {
		t0 = time.Now()
		got[i], _, err = d2.Evaluate(pctx, sc)
		st.probes[i] = time.Since(t0)
		if err != nil {
			span.End()
			return fail(fmt.Sprintf("probe %d", i), err)
		}
	}
	span.End()
	phase("c", p0)

	// (d) one capacity plan over the fleet.
	var engine plan.Engine = d2
	if f.rec != nil {
		engine = &timedEngine{Engine: d2, rec: f.rec}
	}
	dctx, span := obs.StartSpan(ctx, "bench.plan")
	t0, p0 = time.Now(), since()
	planRes, err := plan.New(engine).Run(dctx, f.planSpec)
	st.plan = time.Since(t0)
	span.End()
	phase("d", p0)
	if err != nil {
		return fail("plan", err)
	}
	st.fleet.planStats = planRes.Stats
	st.wall = time.Since(begin)
	root.End()

	st.attempted = st.coldCells + st.warmCells + len(f.probes) + 1
	st.failed = diffRows(f.env.maybeCorrupt(resA.Rows), f.refRows, goldenTol) + diffRows(resB.Rows, resA.Rows, 0)
	for i := range got {
		if !samePoint(got[i], f.refProbes[i], goldenTol) {
			st.failed++
		}
	}
	if !samePlan(planRes, f.refPlan) {
		st.failed++
	}
	return st, nil
}

// samePlan is the frontier-equality gate: same candidates in the same
// rank order with the same refined loads, latencies and certification,
// and the same search accounting.
func samePlan(got, want *plan.Result) bool {
	if got.Stats != want.Stats || len(got.Frontier) != len(want.Frontier) {
		return false
	}
	for i, w := range want.Frontier {
		g := got.Frontier[i]
		if g.Key() != w.Key() || g.Certified != w.Certified ||
			!closeTo(g.MaxLoad, w.MaxLoad, goldenTol) ||
			!closeTo(g.OperatingLoad, w.OperatingLoad, goldenTol) ||
			!closeTo(g.Latency, w.Latency, goldenTol) ||
			!closeTo(g.Sim, w.Sim, goldenTol) {
			return false
		}
	}
	return true
}

// fleetRecorder collects what the traced fleet's decorators see:
// requests as the shards' handlers serve them, round trips as the
// coordinator's clients make them, the planner's calls into its engine,
// and the phase boundaries that assign each of those to a phase.
type fleetRecorder struct {
	mu     sync.Mutex
	reqs   []request
	trips  []request
	engine []request
	phases map[string][]interval
}

// request is one observed call: an HTTP request (path, host, status,
// body sizes) or an engine call (path "run", "eval" or "sim").
type request struct {
	path, host          string
	status              int
	iv                  interval
	reqBytes, respBytes int64
}

func (r *fleetRecorder) addPhase(name string, iv interval) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phases == nil {
		r.phases = make(map[string][]interval)
	}
	r.phases[name] = append(r.phases[name], iv)
}

// reset drops everything recorded so far (the set-up passes).
func (r *fleetRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs, r.trips, r.engine, r.phases = nil, nil, nil, nil
}

// handler decorates a shard's http.Handler.
func (r *fleetRecorder) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := since()
		h.ServeHTTP(sw, req)
		rec := request{path: req.URL.Path, host: req.Host, status: sw.status, iv: interval{start, since()}}
		r.mu.Lock()
		r.reqs = append(r.reqs, rec)
		r.mu.Unlock()
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush keeps the shards' streaming responses flushable through the
// decorator.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RoundTrip decorates the coordinator's http.RoundTripper. A trip ends
// when its response body is closed, so streamed range responses count
// in full.
func (r *fleetRecorder) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := since()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		trip := request{path: req.URL.Path, host: req.URL.Host, status: resp.StatusCode, reqBytes: req.ContentLength}
		resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
			trip.iv, trip.respBytes = interval{start, since()}, n
			r.mu.Lock()
			r.trips = append(r.trips, trip)
			r.mu.Unlock()
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

type countingBody struct {
	io.ReadCloser
	n    int64
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return b.ReadCloser.Close()
}

// timedEngine decorates the planner's engine.
type timedEngine struct {
	plan.Engine
	rec *fleetRecorder
}

func (e *timedEngine) record(kind string, start int64) {
	call := request{path: kind, iv: interval{start, since()}}
	e.rec.mu.Lock()
	e.rec.engine = append(e.rec.engine, call)
	e.rec.mu.Unlock()
}

func (e *timedEngine) Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	defer e.record("run", since())
	return e.Engine.Run(ctx, spec)
}

func (e *timedEngine) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, bool, error) {
	kind := "eval"
	if sc.WithSim {
		kind = "sim"
	}
	defer e.record(kind, since())
	return e.Engine.Evaluate(ctx, sc)
}
