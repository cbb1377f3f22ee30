package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/eval"
	"repro/internal/obs"
)

// Event is one progress notification: scenario sc just finished (or was
// served from cache), done of total cells are now complete.
type Event struct {
	Done, Total int
	Scenario    Scenario
	Cached      bool
}

// Runner is the grid engine: every sweep in the stack — local, per-cell
// remote, batched or dispatched across a fleet — is one Runner doing
// expand → cache pass → schedule the cold cells → write back → observe →
// hand rows to the caller, under Run, Stream and Evaluate. The zero
// value is ready to use: it sizes the pool to GOMAXPROCS and evaluates
// with the built-in stack (the analytic model, the simulator and the
// bound calculus; the last two answer only the cells that ask for them);
// without a Cache, no results are memoized (a single Run never revisits a
// cell — Expand deduplicates). Construct with NewRunner to configure via
// functional options, or set the fields directly — before the runner's
// first use, which builds the stack once and keeps it, so models, Eq. 26
// anchors and simulator networks carry over from one call to the next. A
// Runner must not be copied after first use.
type Runner struct {
	// Workers bounds the worker pool; 0 defers to the spec, then to
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before and filled after every
	// scenario, under Scenario.Key. Scenario keys capture every
	// result-affecting input, so a cache may safely outlive any one spec —
	// or, with a persistent CacheStore such as internal/store's, the
	// process itself — and whoever computed a cell (this process, a shard,
	// a whole fleet) wrote the same line.
	Cache CacheStore
	// Progress, when non-nil, receives an Event per completed cell. It is
	// called from a single goroutine (events arrive in completion order,
	// warm cells first, never concurrently).
	Progress func(Event)
	// Backends, when non-nil, replaces the built-in stack; a custom list
	// reads and writes the cache through a view that prefixes every line
	// with the list's names (see cacheSalt). Every scenario is offered to
	// every backend in order and their points are merged into one cell;
	// backends skip the scenarios that do not concern them (the simulator
	// skips cells with WithSim unset).
	Backends []eval.Evaluator
	// Calib, when non-nil, receives every completed cell (fresh and
	// cached alike) under its Scenario.Key, making the runner a live feed
	// for the calibration map (internal/calib). Observers must dedupe by
	// key themselves and be safe for concurrent calls — cells arrive
	// straight from the scheduler's goroutines.
	Calib CellObserver
	// Scheduler, when non-nil, computes every grid's cold cells and
	// describes its curves in place of the local worker pool. It is the
	// seam a fleet plugs into, not a tuning knob: dispatch.New sets it,
	// over a Runner whose one backend is the fleet client.
	Scheduler Scheduler

	// Built once by init: the evaluator list (Backends, or the built-in
	// stack) and the cache as the runner reads and writes it (Cache, or a
	// custom list's view of it).
	once  sync.Once
	stack []eval.Evaluator
	cache CacheStore

	// Lifetime cell counts: served from cache, computed fresh.
	hits, fresh atomic.Int64
}

// CellObserver consumes completed cells as they land. internal/calib's
// Map is the canonical implementation; the interface lives here so the
// runner can feed observations without depending on the calibration
// layer.
type CellObserver interface {
	ObserveCell(ctx context.Context, key string, cell Cell)
}

// Option configures a Runner.
type Option func(*Runner)

// NewRunner builds a Runner from functional options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// WithWorkers bounds the worker pool.
func WithWorkers(n int) Option { return func(r *Runner) { r.Workers = n } }

// WithCache attaches a (shareable) result cache: an in-memory Cache, a
// persistent store (internal/store), or any other CacheStore.
func WithCache(c CacheStore) Option { return func(r *Runner) { r.Cache = c } }

// WithBackends replaces the default evaluator list.
func WithBackends(b ...eval.Evaluator) Option { return func(r *Runner) { r.Backends = b } }

// WithProgress attaches a per-cell completion callback.
func WithProgress(f func(Event)) Option { return func(r *Runner) { r.Progress = f } }

// PointResult is one streamed cell: a completed row, or the error that
// ended the sweep. A failing sweep delivers its error as the stream's
// final element; a cancelled or expired context instead just closes the
// channel promptly (the consumer's own ctx is the signal — check
// ctx.Err() to distinguish completion from cancellation), with no
// goroutine left behind.
type PointResult struct {
	Row Row
	Err error
}

// init builds what the runner keeps across calls: the evaluator list and
// its view of the cache. This is the one place the built-in stack is
// assembled (make lint keeps it so): the analytic model, and the
// flit-level simulator and the worst-case bound calculus anchored on it.
// The last two answer a cell that did not opt in (WithSim, WithBounds)
// with the empty point, so one list serves every cell.
func (r *Runner) init() {
	r.once.Do(func() {
		r.stack, r.cache = r.Backends, r.Cache
		if r.stack == nil {
			ab := eval.NewAnalyticBackend()
			r.stack = []eval.Evaluator{ab, eval.NewSimBackend(ab), bounds.New(ab)}
		}
		if salt := cacheSalt(r.Backends); salt != "" && r.Cache != nil {
			r.cache = saltedCache{r.Cache, salt}
		}
	})
}

// backends returns the runner's evaluator list: Backends when set, else
// the built-in stack.
func (r *Runner) backends() []eval.Evaluator {
	r.init()
	return r.stack
}

// cacheSalt is the prefix a custom backend list's cache lines carry,
// "backends=<names>|", or "" for the lists that answer as the built-in
// stack does: none, and the fleet client alone — it says so with an empty
// CacheTag, since every shard runs this very stack, so cmd/sweep, cmd/plan
// and sweepd write one line per cell whether they compute it themselves or
// have a fleet do it. Scenario.Key names only the scenario, so any other
// list (WithBackends, the extension point) must not have its cells served
// as the built-in stack's, nor another list's.
func cacheSalt(backends []eval.Evaluator) string {
	if backends == nil {
		return ""
	}
	if len(backends) == 1 {
		if tg, ok := backends[0].(interface{ CacheTag() string }); ok && tg.CacheTag() == "" {
			return ""
		}
	}
	names := make([]string, len(backends))
	for i, be := range backends {
		names[i] = be.Name()
	}
	return "backends=" + strings.Join(names, ",") + "|"
}

// saltedCache is a custom backend list's view of a shared cache: the
// same store, every line under the list's salt. Everything else in the
// runner — spans, the observer, schedulers — sees Scenario.Key only.
type saltedCache struct {
	store CacheStore
	salt  string
}

func (c saltedCache) Get(key string) (Cell, bool) { return c.store.Get(c.salt + key) }
func (c saltedCache) Put(key string, cell Cell)   { c.store.Put(c.salt+key, cell) }

// workers returns the pool size for n cells. The bound is capped at n: a
// spec cannot demand more goroutines than it has cells — specs can arrive
// from untrusted clients (the serving layer), and a pool wider than the
// work is waste even from trusted ones.
func (r *Runner) workers(spec Spec, n int) int {
	w := runtime.GOMAXPROCS(0)
	if r.Workers > 0 {
		w = r.Workers
	} else if spec.Workers > 0 {
		w = spec.Workers
	}
	if w > n {
		w = n
	}
	return w
}

// Counts returns the runner's lifetime cell counts: cells served from
// the cache, and cells computed fresh — by the pool, a Scheduler or
// Evaluate — and landed.
func (r *Runner) Counts() (hits, fresh int64) { return r.hits.Load(), r.fresh.Load() }

// Grid is one expanded sweep as a Scheduler sees it: the spec and its
// cells in expansion order, Keys[i] == Scens[i].Key().
type Grid struct {
	Spec  Spec
	Scens []Scenario
	Keys  []string
}

// CellError names the cell a failure belongs to; every scheduler reports
// a per-cell failure through it, so a failing sweep reads the same
// whichever way its cold cells were computed.
func (g *Grid) CellError(i int, err error) error {
	sc := &g.Scens[i]
	return fmt.Errorf("sweep: scenario %d (%s, load %v): %w", sc.Index, sc.CurveKey(), sc.Load.Value, err)
}

// Scheduler is where a grid's work is done — the one thing a local sweep
// and a fleet sweep do differently. Schedule computes g.Scens[i] for
// every i in cold and hands each result to deliver exactly once, from any
// goroutine (deliver never blocks), returning when all are delivered,
// when a cell fails (the CellError, first failure wins; no further cell
// need be computed) or when ctx ends. Curves describes the grid's curves,
// heads[j] being the first scenario of the j-th: one eval.CurveDesc per
// head, in order, or an error naming the curve the model rejects.
// Everything around them — expansion, the cache pass before and the
// write-back after, the observer, Progress, the result — is the Runner's.
// The local worker pool is the default; internal/dispatch's fleet
// scheduler is the other.
type Scheduler interface {
	Schedule(ctx context.Context, g *Grid, cold []int, deliver func(i int, cell Cell)) error
	Curves(ctx context.Context, g *Grid, heads []int) ([]eval.CurveDesc, error)
}

// localPool is the default Scheduler: the runner's own bounded pool over
// its backends.
type localPool struct{ r *Runner }

// scheduler returns the runner's Scheduler, or its local pool.
func (r *Runner) scheduler() Scheduler {
	if r.Scheduler != nil {
		return r.Scheduler
	}
	return localPool{r}
}

// Schedule implements Scheduler. Cancelling ctx stops the pool promptly:
// no further cell is claimed and in-flight simulations abort inside their
// cycle loop.
func (p localPool) Schedule(ctx context.Context, g *Grid, cold []int, deliver func(int, Cell)) error {
	backends := p.r.backends()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	each(ctx, p.r.workers(g.Spec, len(cold)), len(cold), func(k int) {
		i := cold[k]
		cell, err := compute(ctx, g.Scens[i], g.Keys[i], backends)
		if err != nil {
			cancel(g.CellError(i, err)) // fail fast; the first cause stands
			return
		}
		deliver(i, cell)
	})
	return context.Cause(ctx)
}

// each calls fn(0) … fn(n-1) on up to `workers` goroutines — the one
// bounded pool under sweeps, scenario lists and curve resolution. Workers
// claim indices off a shared counter, so nothing about a result depends
// on scheduling; once ctx has ended no further index is claimed. It
// returns when every claimed call has.
func each(ctx context.Context, workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// compute evaluates one cold cell under its eval.cell span: the scenario
// is offered to every backend and their points merge into one cell. A
// backend that panics fails its cell, not the process — a request must
// never be able to kill a shard.
func compute(ctx context.Context, sc Scenario, key string, backends []eval.Evaluator) (cell Cell, err error) {
	if err := ctx.Err(); err != nil {
		return Cell{}, err
	}
	ctx, span := obs.StartSpanKeyed(ctx, "eval.cell", key)
	defer func() {
		if p := recover(); p != nil {
			cell, err = Cell{}, fmt.Errorf("backend panic on cell %s: %v", key, p)
		}
		if err != nil {
			span.End(obs.Bool("cached", false), obs.String("error", err.Error()))
			return
		}
		span.End(obs.Bool("cached", false))
	}()
	cell = eval.NewPoint()
	for _, be := range backends {
		pt, err := be.Evaluate(ctx, sc)
		if err != nil {
			return Cell{}, fmt.Errorf("%s: %w", be.Name(), err)
		}
		cell = cell.Merge(pt)
	}
	return cell, nil
}

// observe feeds one completed cell to the calibration observer, if any.
func (r *Runner) observe(ctx context.Context, key string, cell Cell) {
	if r.Calib != nil {
		r.Calib.ObserveCell(ctx, key, cell)
	}
}

// hit serves one cell from the cache: the cached eval.cell span, the
// observer feed.
func (r *Runner) hit(ctx context.Context, key string) (Cell, bool) {
	if r.cache == nil {
		return Cell{}, false
	}
	cell, ok := r.cache.Get(key)
	if ok {
		r.hits.Add(1)
		_, span := obs.StartSpanKeyed(ctx, "eval.cell", key)
		span.End(obs.Bool("cached", true))
		r.observe(ctx, key, cell)
	}
	return cell, ok
}

// land takes one fresh cell in: the cache write-back, the observer feed.
func (r *Runner) land(ctx context.Context, key string, cell Cell) {
	if r.cache != nil {
		r.cache.Put(key, cell)
	}
	r.observe(ctx, key, cell)
	r.fresh.Add(1)
}

// Evaluate answers one scenario through the runner's cache and backends:
// the single-cell form of Run, behind the serving layer's /v1/eval and
// the capacity planner's probes. It reports whether the cell was served
// from cache; fresh cells are stored before returning.
func (r *Runner) Evaluate(ctx context.Context, sc Scenario) (Cell, bool, error) {
	return r.evaluate(ctx, sc, sc.Key())
}

// evaluate is Evaluate given the scenario's key (key == sc.Key(), as
// ExpandKeyed returns it): the key is not built again for the cache line,
// the span or the observer.
func (r *Runner) evaluate(ctx context.Context, sc Scenario, key string) (Cell, bool, error) {
	r.init()
	if cell, ok := r.hit(ctx, key); ok {
		return cell, true, nil
	}
	cell, err := compute(ctx, sc, key, r.backends())
	if err != nil {
		return Cell{}, false, err
	}
	r.land(ctx, key, cell)
	return cell, false, nil
}

// EvaluateList answers an explicit scenario list (keys[i] ==
// scens[i].Key()) cell by cell through the cache and the runner's pool:
// the list form of Evaluate, behind /v1/batch and /v1/sweep/part. Every
// cell's outcome — its point, or its own error; one failure does not stop
// the others — reaches fn as it completes, from the pool's goroutines, so
// fn must be safe for concurrent calls. Cells that fail only because ctx
// ended are not reported. It returns when every cell is answered or ctx
// has ended.
func (r *Runner) EvaluateList(ctx context.Context, scens []Scenario, keys []string, fn func(i int, cell Cell, err error)) {
	each(ctx, r.workers(Spec{}, len(scens)), len(scens), func(i int) {
		cell, _, err := r.evaluate(ctx, scens[i], keys[i])
		if err != nil && ctx.Err() != nil {
			return // cancellation, not the scenario's fault
		}
		fn(i, cell, err)
	})
}

// landed is one fresh cell travelling from a scheduler's goroutine to the
// sweep's consumer.
type landed struct {
	i    int
	cell Cell
}

// sweep is the one grid path under Run and Stream: expand, root span,
// cache pass, schedule the cold cells, write back, observe, account. Rows
// reach the caller on this goroutine in completion order, warm cells
// first: into res (which also asks for curve metadata) or through emit,
// whose false return — the consumer is gone — abandons the sweep. The
// returned error is the sweep's failure, or ctx's own error when ctx
// ended first: a timeout is not any one scenario's fault.
func (r *Runner) sweep(ctx context.Context, spec Spec, res *Result, emit func(Row) bool) (err error) {
	scens, keys, err := ExpandKeyed(spec)
	if err != nil {
		return err
	}
	g := &Grid{Spec: spec, Scens: scens, Keys: keys}
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.run", specTraceKey(spec))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	span.SetAttr(obs.Int("cells", len(scens)))
	r.init()
	if res != nil {
		if res.Curves, err = r.resolveCurves(ctx, g); err != nil {
			return err
		}
		res.Rows = make([]Row, len(scens))
	}
	done := 0
	finish := func(i int, cell Cell, cached bool) bool {
		done++
		row := Row{Scenario: scens[i], Cell: cell, Cached: cached}
		if r.Progress != nil {
			r.Progress(Event{Done: done, Total: len(scens), Scenario: row.Scenario, Cached: cached})
		}
		if res != nil {
			res.Rows[i] = row
			return true
		}
		return emit(row)
	}

	// Cache pass: warm cells complete here and now, cold indices become
	// the scheduler's work list.
	var cold []int
	for i := range scens {
		if cell, ok := r.hit(ctx, keys[i]); ok {
			if !finish(i, cell, true) {
				return ctx.Err()
			}
			continue
		}
		if cold == nil {
			cold = make([]int, 0, len(scens)-i)
		}
		cold = append(cold, i)
	}
	hits := done

	if len(cold) > 0 {
		sched := r.scheduler()
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		// Sized to the cold set, so a scheduler's deliver never blocks on
		// a slow consumer.
		out := make(chan landed, len(cold))
		var schedErr error
		go func() {
			defer close(out)
			schedErr = sched.Schedule(runCtx, g, cold, func(i int, cell Cell) {
				r.land(ctx, keys[i], cell)
				out <- landed{i, cell}
			})
		}()
		for c := range out {
			if runCtx.Err() == nil && !finish(c.i, c.cell, false) {
				cancel() // consumer gone; the scheduler unwinds and closes out
			}
		}
		if schedErr != nil && ctx.Err() == nil {
			return schedErr
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	span.SetAttr(obs.Int("cache_hits", hits))
	span.SetAttr(obs.Int("cache_misses", done-hits))
	if res != nil {
		res.CacheHits, res.CacheMisses = hits, done-hits
	}
	return nil
}

// Run expands the spec and executes every scenario, returning rows in
// expansion order. Results are independent of the worker count: each
// scenario derives its seed from the spec seed and its own curve
// position, never from scheduling. Cancelling ctx aborts the sweep —
// including simulations already in flight — and returns ctx's error;
// cells completed before the cancellation are still in the cache.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	start := time.Now()
	res := &Result{Spec: spec}
	if err := r.sweep(ctx, spec, res, nil); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// specTraceKey is the stable key that roots a sweep's trace: the spec
// name when it has one, so repeated runs of the same named spec produce
// identical span IDs.
func specTraceKey(spec Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "anonymous"
}

// Stream expands the spec and delivers each cell on the returned channel
// as it completes (completion order, not expansion order; curve metadata
// is Run's, and is not resolved). The channel closes when the sweep
// finishes, fails, or ctx is cancelled. A failure — a bad spec included —
// is delivered as the final PointResult with Err set: guaranteed, as long
// as the consumer keeps receiving until the channel closes. Cancelling or
// timing out ctx instead closes the channel promptly with no terminal
// error element (the consumer's own ctx is the signal) and leaves no
// goroutines behind.
func (r *Runner) Stream(ctx context.Context, spec Spec) <-chan PointResult {
	out := make(chan PointResult)
	go func() {
		defer close(out)
		err := r.sweep(ctx, spec, nil, func(row Row) bool { return emit(ctx, out, PointResult{Row: row}) })
		if err != nil {
			// While ctx is live this send blocks until the consumer takes
			// it; once ctx has ended, close itself is the signal and emit
			// gives up instead of leaking.
			emit(ctx, out, PointResult{Err: err})
		}
	}()
	return out
}

// emit sends pr unless ctx is already cancelled; it reports whether the
// consumer is still listening.
func emit(ctx context.Context, out chan<- PointResult, pr PointResult) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case out <- pr:
		return true
	case <-ctx.Done():
		return false
	}
}

// CurveDescriber is what the local pool asks of a backend to resolve
// curves: the model context (name, D̄, saturation anchor) of a
// scenario's curve. The analytic backend is one; a fleet answers a whole
// grid's curves at once instead (Scheduler.Curves).
type CurveDescriber interface {
	Curve(context.Context, eval.Scenario) (eval.CurveDesc, error)
}

// sameCurve reports whether two scenarios lie on one curve: every field
// CurveKey reads is identical. Expansion emits a curve's load points
// back to back — the workload axis shares one *workload.Spec per entry,
// and Validate refuses two variants or workloads that would collapse
// into one curve — so comparing a cell with its predecessor finds every
// curve boundary without building a key.
func sameCurve(a, b *Scenario) bool {
	return a.Topology == b.Topology && a.MsgFlits == b.MsgFlits && a.Policy == b.Policy &&
		a.Variant == b.Variant && a.Workload == b.Workload
}

// curveHeads returns the first scenario of each curve: one index per run
// of sameCurve scenarios (Result.ByCurve cuts the rows at the same
// boundaries). The boundaries are counted first, so the slice is one
// allocation, not one per doubling.
func curveHeads(scens []Scenario) []int {
	n := 0
	for i := range scens {
		if i == 0 || !sameCurve(&scens[i], &scens[i-1]) {
			n++
		}
	}
	heads := make([]int, 0, n)
	for i := range scens {
		if i == 0 || !sameCurve(&scens[i], &scens[i-1]) {
			heads = append(heads, i)
		}
	}
	return heads
}

// Curves implements Scheduler: each head is described on the pool —
// a first look at a curve may be an Eq. 26 search — through the first
// backend that can (the analytic model, in the built-in stack); a list
// with no such backend leaves the model fields NaN. Descriptions land at
// the curve's index, so the order never depends on scheduling. Once ctx
// has ended no further curve is described and its error is returned as
// is.
func (p localPool) Curves(ctx context.Context, g *Grid, heads []int) ([]eval.CurveDesc, error) {
	descs := make([]eval.CurveDesc, len(heads))
	var desc CurveDescriber
	for _, be := range p.r.backends() {
		if d, ok := be.(CurveDescriber); ok {
			desc = d
			break
		}
	}
	if desc == nil {
		for i := range descs {
			descs[i] = eval.CurveDesc{AvgDist: math.NaN(), SaturationLoad: math.NaN()}
		}
		return descs, nil
	}
	errs := make([]error, len(heads))
	each(ctx, p.r.workers(g.Spec, len(g.Scens)), len(heads), func(i int) {
		descs[i], errs[i] = desc.Curve(ctx, g.Scens[heads[i]])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", g.Scens[heads[i]].CurveKey(), err)
		}
	}
	return descs, nil
}

// Curves describes every curve of g — one eval.CurveDesc per curve, in
// grid order — through the runner's Scheduler. It is what a shard answers
// /v1/curve with.
func (r *Runner) Curves(ctx context.Context, g *Grid) ([]eval.CurveDesc, error) {
	r.init()
	return r.scheduler().Curves(ctx, g, curveHeads(g.Scens))
}

// resolveCurves builds the grid's per-curve metadata under a
// sweep.curves span that makes the set-up share of a sweep attributable.
func (r *Runner) resolveCurves(ctx context.Context, g *Grid) ([]CurveInfo, error) {
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.curves", "")
	before := analytic.SaturationSearches()
	heads := curveHeads(g.Scens)
	descs, err := r.scheduler().Curves(ctx, g, heads)
	var infos []CurveInfo
	if err == nil {
		infos = make([]CurveInfo, len(heads))
		for i, h := range heads {
			sc, cd := &g.Scens[h], &descs[i]
			infos[i] = CurveInfo{
				Topology: sc.Topology, MsgFlits: sc.MsgFlits,
				Policy: sc.Policy.String(), Variant: sc.Variant.Name,
				Model: cd.Model, AvgDist: cd.AvgDist, SaturationLoad: cd.SaturationLoad,
			}
			if !sc.Workload.IsDefault() {
				infos[i].Workload = sc.Workload.Label()
			}
		}
	}
	if span != nil { // untraced, the attrs are not even boxed
		// A process-wide counter: exact unless another sweep searches at
		// the same moment.
		span.End(obs.Int("curves", len(infos)), obs.Int64("saturation_searches", analytic.SaturationSearches()-before))
	}
	return infos, err
}
