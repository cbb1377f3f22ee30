package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// Runner executes sweep specs over a list of Evaluator backends. The
// zero value is ready to use: it sizes the pool to GOMAXPROCS and
// evaluates with the default backends (analytic, plus the simulator and
// the bound calculus when the spec asks for them); without a Cache, no
// results are memoized (a single Run never revisits a cell — Expand
// deduplicates). Construct with NewRunner to configure via functional
// options, or set the fields directly — before the runner's first use,
// which builds the default backends and the cache salt once and keeps
// them, so models, Eq. 26 anchors and simulator networks carry over from
// one call to the next. A Runner must not be copied after first use.
type Runner struct {
	// Workers bounds the worker pool; 0 defers to the spec, then to
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before and filled after every
	// scenario. Scenario keys capture every result-affecting input, so a
	// cache may safely outlive any one spec — or, with a persistent
	// CacheStore such as internal/store's, the process itself.
	Cache CacheStore
	// Progress, when non-nil, receives an Event per completed cell. It is
	// called from a single goroutine (events arrive in completion order,
	// never concurrently).
	Progress func(Event)
	// Backends, when non-nil, replaces the default evaluator list. Every
	// scenario is offered to every backend in order and their points are
	// merged into one cell; backends skip the scenarios that do not
	// concern them (the simulator skips cells with WithSim unset).
	Backends []eval.Evaluator
	// Calib, when non-nil, receives every completed cell (fresh and
	// cached alike) under its salted cache key, making the runner a live
	// feed for the calibration map (internal/calib). Observers must
	// dedupe by key themselves and be safe for concurrent calls — cells
	// arrive straight from the worker pool.
	Calib CellObserver

	// Built once by init: the default backend lists (nil with explicit
	// Backends), indexed by which optional backends join the analytic
	// model — bit 0 the simulator, bit 1 the bound calculus — and the
	// cache salt.
	once     sync.Once
	defaults [4][]eval.Evaluator
	salt     string
}

// CellObserver consumes completed cells as they land. internal/calib's
// Map is the canonical implementation; the interface lives here so the
// runner and the dispatcher can feed observations without depending on
// the calibration layer.
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

// WithCalibration attaches a live calibration observer.
func WithCalibration(o CellObserver) Option { return func(r *Runner) { r.Calib = o } }

// observe feeds one completed cell to the calibration observer, if any.
func (r *Runner) observe(ctx context.Context, key string, cell Cell) {
	if r.Calib != nil {
		r.Calib.ObserveCell(ctx, key, cell)
	}
}

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

// init builds what the runner keeps across calls: the default backends
// — the analytic model, the flit-level simulator anchored on it and the
// worst-case bound calculus anchored the same way — unless Backends
// replaces them, and the cache salt.
func (r *Runner) init() {
	r.once.Do(func() {
		if r.Backends == nil {
			ab := eval.NewAnalyticBackend()
			sb, bb := eval.NewSimBackend(ab), bounds.New(ab)
			r.defaults = [4][]eval.Evaluator{{ab}, {ab, sb}, {ab, bb}, {ab, sb, bb}}
		}
		r.salt = cacheSalt(r.Backends)
	})
}

// backends returns the runner's evaluator list: Backends when set, else
// the analytic model plus — when asked for — the simulator and the bound
// calculus.
func (r *Runner) backends(withSim, withBounds bool) []eval.Evaluator {
	r.init()
	if r.Backends != nil {
		return r.Backends
	}
	i := 0
	if withSim {
		i |= 1
	}
	if withBounds {
		i |= 2
	}
	return r.defaults[i]
}

// cacheSalt distinguishes cache lines produced by non-default backend
// lists: Scenario.Key hashes only the scenario, so a cache shared
// between runners with different Backends (WithBackends) must not serve
// one backend's cells as another's. Backends are identified by Name(),
// or by CacheTag() when they implement it — a backend whose results
// depend on configuration beyond its name (a custom LoadResolver, a
// remote endpoint, …) should return a tag capturing that configuration.
// The default list keeps unsalted keys, preserving cache sharing across
// default runners.
func cacheSalt(backends []eval.Evaluator) string {
	if backends == nil {
		return ""
	}
	type tagged interface{ CacheTag() string }
	names := make([]string, len(backends))
	for i, be := range backends {
		if tg, ok := be.(tagged); ok {
			names[i] = tg.CacheTag()
		} else {
			names[i] = be.Name()
		}
	}
	return "backends=" + strings.Join(names, ",") + "|"
}

// salted reports whether cache lines differ from scenario keys: the
// runner has a salt and a cache or observer that reads salted lines.
func (r *Runner) salted() bool {
	return r.salt != "" && (r.Cache != nil || r.Calib != nil)
}

// cacheKeys returns every scenario's cache line given its key: salted
// copies, made once per run, or the keys themselves.
func (r *Runner) cacheKeys(keys []string) []string {
	if !r.salted() {
		return keys
	}
	out := make([]string, len(keys))
	for i, key := range keys {
		out[i] = r.salt + key
	}
	return out
}

// workers returns the pool size for a grid of n scenarios. The bound is
// capped at n: a spec cannot demand more goroutines than it has cells —
// specs can arrive from untrusted clients (the serving layer), and a
// pool wider than the grid is waste even from trusted ones.
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

// completion is one finished cell travelling from the pool to the
// consumer.
type completion struct {
	row Row
	err error
}

// launch starts the worker pool for the expanded scenarios (keys[i] is
// scens[i].Key()) and returns the completion stream. The returned channel
// is buffered for every scenario, so workers and the cache feeder never
// block on a slow consumer; it is closed once all workers have drained.
// Cancelling ctx stops the pool promptly (in-flight simulations abort
// inside their cycle loop).
func (r *Runner) launch(ctx context.Context, spec Spec, scens []Scenario, keys []string, backends []eval.Evaluator) <-chan completion {
	out := make(chan completion, len(scens))
	jobs := make(chan int)
	cacheKeys := r.cacheKeys(keys)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(spec, len(scens)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sc := scens[i]
				if err := ctx.Err(); err != nil {
					out <- completion{row: Row{Scenario: sc}, err: err}
					continue
				}
				cctx, span := obs.StartSpanKeyed(ctx, "eval.cell", keys[i])
				cell, err := evaluate(cctx, sc, backends)
				if err != nil {
					span.End(obs.Bool("cached", false), obs.String("error", err.Error()))
					out <- completion{row: Row{Scenario: sc}, err: err}
					continue
				}
				span.End(obs.Bool("cached", false))
				if r.Cache != nil {
					r.Cache.Put(cacheKeys[i], cell)
				}
				r.observe(cctx, cacheKeys[i], cell)
				out <- completion{row: Row{Scenario: sc, Cell: cell}}
			}
		}()
	}
	go func() {
		defer close(out)
		for i, sc := range scens {
			if r.Cache != nil {
				if cell, ok := r.Cache.Get(cacheKeys[i]); ok {
					_, span := obs.StartSpanKeyed(ctx, "eval.cell", keys[i])
					span.End(obs.Bool("cached", true))
					r.observe(ctx, cacheKeys[i], cell)
					out <- completion{row: Row{Scenario: sc, Cell: cell, Cached: true}}
					continue
				}
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				out <- completion{row: Row{Scenario: sc}, err: ctx.Err()}
			}
		}
		close(jobs)
		wg.Wait()
	}()
	return out
}

// evaluate offers the scenario to every backend and merges their points
// into one cell.
func evaluate(ctx context.Context, sc Scenario, backends []eval.Evaluator) (Cell, error) {
	cell := eval.NewPoint()
	for _, be := range backends {
		pt, err := be.Evaluate(ctx, sc)
		if err != nil {
			return Cell{}, fmt.Errorf("%s: %w", be.Name(), err)
		}
		cell = cell.Merge(pt)
	}
	return cell, nil
}

// Evaluate answers one scenario through the runner's cache and backends:
// the single-cell form of Run, used by the serving layer's /v1/eval. It
// reports whether the cell was served from cache; fresh cells are stored
// before returning. The spec-dependent default backend list cannot be
// inferred from a lone scenario, so a runner without explicit Backends
// evaluates with the analytic model plus — when the scenario asks for
// them — the simulator and the bound calculus anchored on it.
func (r *Runner) Evaluate(ctx context.Context, sc Scenario) (Cell, bool, error) {
	return r.EvaluateKeyed(ctx, sc, sc.Key())
}

// EvaluateKeyed is Evaluate for a caller that already holds the
// scenario's key (key == sc.Key(), as ExpandKeyed returns it): the key is
// not built again for the cache line, the span or the observer.
func (r *Runner) EvaluateKeyed(ctx context.Context, sc Scenario, key string) (Cell, bool, error) {
	r.init()
	cacheKey := key
	if r.salted() {
		cacheKey = r.salt + key
	}
	if r.Cache != nil {
		if cell, ok := r.Cache.Get(cacheKey); ok {
			_, span := obs.StartSpanKeyed(ctx, "eval.cell", key)
			span.End(obs.Bool("cached", true))
			r.observe(ctx, cacheKey, cell)
			return cell, true, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return Cell{}, false, err
	}
	cctx, span := obs.StartSpanKeyed(ctx, "eval.cell", key)
	cell, err := evaluate(cctx, sc, r.backends(sc.WithSim, sc.WithBounds))
	if err != nil {
		span.End(obs.Bool("cached", false), obs.String("error", err.Error()))
		return Cell{}, false, err
	}
	span.End(obs.Bool("cached", false))
	if r.Cache != nil {
		r.Cache.Put(cacheKey, cell)
	}
	r.observe(cctx, cacheKey, cell)
	return cell, false, nil
}

// Run expands the spec and executes every scenario, returning rows in
// expansion order. Results are independent of the worker count: each
// scenario derives its seed from the spec seed and its own curve
// position, never from scheduling. Cancelling ctx aborts the sweep —
// including simulations already in flight — and returns ctx's error;
// cells completed before the cancellation are still in the cache.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	start := time.Now()
	scens, keys, err := ExpandKeyed(spec)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.run", specTraceKey(spec))
	defer func() { span.End() }()
	span.SetAttr(obs.Int("cells", len(scens)))
	backends := r.backends(spec.withSim(), spec.wantBounds())
	curves, err := r.resolveCurves(ctx, spec, scens, backends)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, Rows: make([]Row, len(scens)), Curves: curves}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	done := 0
	for c := range r.launch(runCtx, spec, scens, keys, backends) {
		if c.err != nil {
			// Genuine scenario failures are reported with their cell;
			// errors that merely reflect ctx ending (directly, or wrapped
			// by an aborted simulation) fall through to the ctx.Err()
			// return below — a timeout is not any one scenario's fault.
			if firstErr == nil && ctx.Err() == nil && !errors.Is(c.err, context.Canceled) {
				firstErr = fmt.Errorf("sweep: scenario %d (%s, load %v): %w",
					c.row.Scenario.Index, c.row.Scenario.CurveKey(), c.row.Scenario.Load.Value, c.err)
			}
			cancel() // fail fast; remaining cells drain as cancelled
			continue
		}
		res.Rows[c.row.Scenario.Index] = c.row
		done++
		if c.row.Cached {
			res.CacheHits++
		} else {
			res.CacheMisses++
		}
		if r.Progress != nil {
			r.Progress(Event{Done: done, Total: len(scens), Scenario: c.row.Scenario, Cached: c.row.Cached})
		}
	}
	if firstErr != nil {
		span.SetAttr(obs.String("error", firstErr.Error()))
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	span.SetAttr(obs.Int("cache_hits", res.CacheHits))
	span.SetAttr(obs.Int("cache_misses", res.CacheMisses))
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
// as it completes (completion order, not expansion order). The channel
// closes when the sweep finishes, fails, or ctx is cancelled. A failure
// is delivered as the final PointResult with Err set — guaranteed, as
// long as the consumer keeps receiving until the channel closes.
// Cancelling or timing out ctx instead closes the channel promptly with
// no terminal error element (the consumer's own ctx is the signal) and
// leaves no goroutines behind.
func (r *Runner) Stream(ctx context.Context, spec Spec) <-chan PointResult {
	out := make(chan PointResult)
	go func() {
		defer close(out)
		scens, keys, err := ExpandKeyed(spec)
		if err != nil {
			emit(ctx, out, PointResult{Err: err})
			return
		}
		ctx, span := obs.StartSpanKeyed(ctx, "sweep.run", specTraceKey(spec))
		defer func() { span.End() }()
		span.SetAttr(obs.Int("cells", len(scens)))
		backends := r.backends(spec.withSim(), spec.wantBounds())
		if _, err := r.resolveCurves(ctx, spec, scens, backends); err != nil {
			emit(ctx, out, PointResult{Err: err})
			return
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		done, total := 0, len(scens)
		var streamErr error
		for c := range r.launch(runCtx, spec, scens, keys, backends) {
			switch {
			case c.err != nil:
				// Scenario failures end the sweep; errors that merely
				// reflect ctx ending (directly, or wrapped by an aborted
				// simulation) are cancellation, not failure — the close
				// itself is the consumer's signal. By the time such a
				// completion drains, ctx.Err() is already non-nil.
				if streamErr == nil && ctx.Err() == nil && !errors.Is(c.err, context.Canceled) {
					streamErr = fmt.Errorf("sweep: scenario %d (%s, load %v): %w",
						c.row.Scenario.Index, c.row.Scenario.CurveKey(), c.row.Scenario.Load.Value, c.err)
				}
				cancel() // fail fast; keep draining the pool
			case streamErr == nil:
				done++
				if r.Progress != nil {
					r.Progress(Event{Done: done, Total: total, Scenario: c.row.Scenario, Cached: c.row.Cached})
				}
				if !emit(ctx, out, PointResult{Row: c.row}) {
					cancel() // consumer gone; drain the pool and close
				}
			}
		}
		if streamErr != nil {
			// While ctx is live this send blocks until the consumer takes
			// it, so a consumer following the contract (receive until
			// close) is guaranteed the error; once ctx has ended, close
			// itself is the signal and emit gives up instead of leaking.
			emit(ctx, out, PointResult{Err: streamErr})
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

// CurveDescriber is what curve resolution asks of a backend: the model
// context (name, D̄, saturation anchor) of a scenario's curve. The
// analytic backend answers locally, the remote backend over /v1/curve.
type CurveDescriber interface {
	Curve(context.Context, eval.Scenario) (eval.CurveDesc, error)
}

// sameCurve reports whether two scenarios certainly share a curve: every
// field CurveKey reads is identical. Expansion emits a curve's load
// points back to back, so comparing a cell with its predecessor finds
// nearly every curve boundary without building a key.
func sameCurve(a, b *Scenario) bool {
	return a.Topology == b.Topology && a.MsgFlits == b.MsgFlits && a.Policy == b.Policy &&
		a.Variant == b.Variant && a.Workload == b.Workload
}

// ResolveCurves builds the grid's per-curve metadata in order of first
// appearance, asking desc (nil leaves the model fields NaN) on up to
// `workers` goroutines — a first look at a curve may be an Eq. 26 search
// or a network round trip. CurveKey is built once per curve. Once ctx has
// ended no further curve is described and its error is returned as is.
func ResolveCurves(ctx context.Context, scens []Scenario, desc CurveDescriber, workers int) ([]CurveInfo, error) {
	var heads []int // first scenario of each distinct curve
	var keys []string
	seen := make(map[string]bool)
	for i := range scens {
		if i > 0 && sameCurve(&scens[i], &scens[i-1]) {
			continue
		}
		if key := scens[i].CurveKey(); !seen[key] {
			seen[key] = true
			heads, keys = append(heads, i), append(keys, key)
		}
	}
	infos := make([]CurveInfo, len(heads))
	errs := make([]error, len(heads))
	describe := func(i int) {
		sc := &scens[heads[i]]
		info := CurveInfo{
			Topology: sc.Topology, MsgFlits: sc.MsgFlits,
			Policy: sc.Policy.String(), Variant: sc.Variant.Name,
			AvgDist: math.NaN(), SaturationLoad: math.NaN(),
		}
		if !sc.Workload.IsDefault() {
			info.Workload = sc.Workload.Label()
		}
		if desc != nil {
			var cd eval.CurveDesc
			if cd, errs[i] = desc.Curve(ctx, *sc); errs[i] != nil {
				return
			}
			info.Model, info.AvgDist, info.SaturationLoad = cd.Model, cd.AvgDist, cd.SaturationLoad
		}
		infos[i] = info
	}
	// Workers claim curves off a shared counter; results land at the
	// curve's index, so the order never depends on scheduling.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), len(heads)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(heads) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				describe(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", keys[i], err)
		}
	}
	return infos, nil
}

// resolveCurves resolves the grid's curves on the runner's workers,
// through the first backend that can describe curves (the analytic
// backend, in the default list; the remote backend over /v1/curve), under
// a sweep.curves span that makes the set-up share of a sweep attributable.
func (r *Runner) resolveCurves(ctx context.Context, spec Spec, scens []Scenario, backends []eval.Evaluator) ([]CurveInfo, error) {
	var desc CurveDescriber
	for _, be := range backends {
		if d, ok := be.(CurveDescriber); ok {
			desc = d
			break
		}
	}
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.curves", "")
	before := saturationSearches.Load()
	curves, err := ResolveCurves(ctx, scens, desc, r.workers(spec, len(scens)))
	if span != nil { // untraced, the attrs are not even boxed
		// A process-wide counter: exact unless another sweep searches at
		// the same moment.
		span.End(obs.Int("curves", len(curves)), obs.Int64("saturation_searches", saturationSearches.Load()-before))
	}
	return curves, err
}

// saturationSearches is the analytic layer's Eq. 26 search counter.
var saturationSearches = obs.NewCounter("analytic_saturation_searches_total")
