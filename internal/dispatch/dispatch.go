// Package dispatch is the distributed sweep scheduler: a coordinator
// that partitions a sweep.Spec's deterministic grid into contiguous
// index ranges, dispatches each range to a worker shard over the batched
// wire protocol (POST /v1/sweep/part — spec plus range in, NDJSON cells
// out), and merges the per-shard streams back into one grid-ordered,
// Stream-compatible result channel.
//
// Scheduling is static range partitioning with work stealing on top: the
// cold cells of the grid (the shared cache is consulted first, so warm
// cells never cross the wire) are split into contiguous spans that sit
// in a shared queue; every shard runs one puller. A shard that fails —
// connection error, 5xx, torn or short NDJSON stream, or a stream idle
// past the watchdog — has the undelivered remainder of its span split
// back into the queue, where any healthy shard steals it; the failing
// shard sits out an exponential backoff and is ejected after too many
// consecutive failures. The sweep survives any shard dying mid-run as
// long as one shard remains; cells already streamed before the failure
// are kept (and cached), never recomputed.
//
// Because the grid expansion, per-scenario seeds and the shards' own
// evaluation path are all deterministic, a dispatched sweep is
// cell-for-cell identical to an in-process run: models to the last bit
// modulo float formatting (pinned at 1e-9 by test), simulator cells bit
// for bit — including when a shard is killed mid-sweep.
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Dispatcher schedules sweeps across a shard fleet. Construct with New;
// it is safe for concurrent use and reusable across sweeps (statistics
// accumulate over its lifetime). It satisfies the serving layer's
// Sweeper contract and mirrors sweep.Runner's Run/Stream/Evaluate API,
// so it drops in anywhere a Runner does — including as the capacity
// planner's engine (plan.Engine): Run carries the coarse grids,
// Evaluate the per-cell probes, both on the fleet cache salt.
type Dispatcher struct {
	addrs    []string
	salt     string
	batch    int
	cache    sweep.CacheStore
	calib    sweep.CellObserver
	ropts    []eval.RemoteOption // transport settings, consumed by New
	rb       *eval.RemoteBackend // the fleet transport: every request goes through it
	backoff  time.Duration
	maxFails int

	cacheHits, cells, batches, requeues, failures, ejected atomic.Int64

	// queueDepth gauges backpressure: cold cells queued or in flight
	// across every active sweep (grows at dispatch start, shrinks as
	// cells deliver). healthMu guards the per-shard health states.
	queueDepth atomic.Int64
	healthMu   sync.Mutex
	health     map[string]ShardHealth
}

// ShardHealth is one shard's scheduling state as last observed.
type ShardHealth int

const (
	// ShardHealthy marks a shard whose last range dispatch succeeded.
	ShardHealthy ShardHealth = iota
	// ShardBackoff marks a shard sitting out a failure backoff.
	ShardBackoff
	// ShardEjected marks a shard dropped for the rest of a sweep.
	ShardEjected
)

// String renders the state for /healthz payloads.
func (h ShardHealth) String() string {
	switch h {
	case ShardBackoff:
		return "backoff"
	case ShardEjected:
		return "ejected"
	}
	return "healthy"
}

// Option configures a Dispatcher.
type Option func(*Dispatcher)

// WithBatch bounds how many cells one dispatched range may carry; 0 (the
// default) auto-sizes to roughly four ranges per shard, so work stealing
// has granularity without per-range overhead dominating.
func WithBatch(n int) Option { return func(d *Dispatcher) { d.batch = n } }

// WithCache attaches the shared result cache consulted before
// scheduling: warm cells are served locally and only cold cells are
// dispatched; every streamed cell is written back. The cache lines are
// salted with the fleet tag, shared with RemoteBackend and BatchBackend
// clients of the same shard set.
func WithCache(c sweep.CacheStore) Option { return func(d *Dispatcher) { d.cache = c } }

// WithCalibration attaches a live calibration observer (the same
// sweep.CellObserver contract the Runner takes): every cell the
// dispatcher sees — warm from the cache or fresh off a shard — is fed
// to it under its fleet-salted key, so a front-end dispatcher keeps the
// calibration map current without re-mining the store.
func WithCalibration(o sweep.CellObserver) Option { return func(d *Dispatcher) { d.calib = o } }

// observe feeds one cell to the calibration observer, if any.
func (d *Dispatcher) observe(ctx context.Context, key string, cell sweep.Cell) {
	if d.calib != nil {
		d.calib.ObserveCell(ctx, key, cell)
	}
}

// WithHTTPClient replaces the transport's default HTTP client on every
// path — range streams, per-cell Evaluate and /v1/curve requests — with
// eval.WithHTTPClient's semantics.
func WithHTTPClient(c *http.Client) Option {
	return func(d *Dispatcher) { d.ropts = append(d.ropts, eval.WithHTTPClient(c)) }
}

// WithShardBackoff sets the base delay a failing shard sits out before
// its next attempt (doubled per consecutive failure, capped at 5s, then
// stretched to the shard's Retry-After when it sent one; default 100ms).
func WithShardBackoff(b time.Duration) Option {
	return func(d *Dispatcher) {
		if b > 0 {
			d.backoff = b
		}
	}
}

// WithMaxShardFailures sets how many consecutive failures eject a shard
// from the fleet for the rest of the sweep (default 3). An ejected
// shard's unfinished ranges redistribute to the survivors; the sweep
// fails only when every shard is ejected with cells outstanding.
func WithMaxShardFailures(n int) Option {
	return func(d *Dispatcher) {
		if n > 0 {
			d.maxFails = n
		}
	}
}

// New builds a dispatcher over the given shard addresses ("host:port" or
// full URLs); at least one is required.
func New(addrs []string, opts ...Option) (*Dispatcher, error) {
	d := &Dispatcher{
		backoff:  100 * time.Millisecond,
		maxFails: 3,
	}
	for _, opt := range opts {
		opt(d)
	}
	rb, err := eval.NewRemoteBackend(addrs, d.ropts...)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	d.rb = rb
	d.addrs = rb.Addrs()
	// The same salt a Runner derives for a backend list holding one
	// fleet client, so dispatched, per-cell remote and batched sweeps
	// over the same shard set share cache lines.
	d.salt = "backends=" + rb.CacheTag() + "|"
	d.health = make(map[string]ShardHealth, len(d.addrs))
	for _, addr := range d.addrs {
		d.health[addr] = ShardHealthy
	}
	return d, nil
}

// setHealth records a shard's latest scheduling state.
func (d *Dispatcher) setHealth(addr string, h ShardHealth) {
	d.healthMu.Lock()
	d.health[addr] = h
	d.healthMu.Unlock()
}

// Health returns the per-shard scheduling states as last observed. A
// shard ejected from one sweep is retried fresh by the next; the map
// reflects the most recent verdicts.
func (d *Dispatcher) Health() map[string]string {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	out := make(map[string]string, len(d.health))
	for addr, h := range d.health {
		out[addr] = h.String()
	}
	return out
}

// HealthSummary counts shards per state — the /healthz and /metrics
// fleet-health rollup.
func (d *Dispatcher) HealthSummary() (healthy, backoff, ejected int) {
	d.healthMu.Lock()
	defer d.healthMu.Unlock()
	for _, h := range d.health {
		switch h {
		case ShardBackoff:
			backoff++
		case ShardEjected:
			ejected++
		default:
			healthy++
		}
	}
	return healthy, backoff, ejected
}

// QueueDepth gauges dispatch backpressure: cold cells queued or in
// flight across every active sweep.
func (d *Dispatcher) QueueDepth() int64 { return d.queueDepth.Load() }

// Addrs returns the normalized shard addresses.
func (d *Dispatcher) Addrs() []string { return append([]string(nil), d.addrs...) }

// Stats is a snapshot of the dispatcher's lifetime counters.
type Stats struct {
	// CacheHits counts cells served from the shared cache without being
	// dispatched.
	CacheHits int64
	// Cells counts cells received from shards.
	Cells int64
	// Batches counts dispatched range requests (attempts included).
	Batches int64
	// Requeues counts ranges returned to the queue after a shard failure.
	Requeues int64
	// ShardFailures counts failed range dispatches.
	ShardFailures int64
	// EjectedShards counts shards dropped for the rest of a sweep.
	EjectedShards int64
}

// Stats returns the dispatcher's lifetime counters.
func (d *Dispatcher) Stats() Stats {
	return Stats{
		CacheHits:     d.cacheHits.Load(),
		Cells:         d.cells.Load(),
		Batches:       d.batches.Load(),
		Requeues:      d.requeues.Load(),
		ShardFailures: d.failures.Load(),
		EjectedShards: d.ejected.Load(),
	}
}

// StatsMap renders the counters under stable snake_case names; the
// serving layer's /metrics endpoint exports them with a sweep_dispatch_
// prefix.
func (d *Dispatcher) StatsMap() map[string]int64 {
	return map[string]int64{
		"cache_hits_total":     d.cacheHits.Load(),
		"cells_total":          d.cells.Load(),
		"batches_total":        d.batches.Load(),
		"requeues_total":       d.requeues.Load(),
		"shard_failures_total": d.failures.Load(),
		"ejected_shards_total": d.ejected.Load(),
	}
}

// spanSize returns the range bound for a cold set of n cells.
func (d *Dispatcher) spanSize(n int) int {
	if d.batch > 0 {
		return d.batch
	}
	per := (n + 4*len(d.addrs) - 1) / (4 * len(d.addrs))
	if per < 1 {
		per = 1
	}
	return per
}

// Evaluate answers one scenario through the fleet: the shared cache
// first (same salted lines the dispatched sweeps use), then the
// per-cell client with its shard rotation and retry. It reports
// whether the cell was served from cache, mirroring Runner.Evaluate —
// together with Run this makes the Dispatcher a complete engine for
// the capacity planner (plan.Engine): coarse grids dispatch as ranges,
// off-grid bisection probes and certification simulations take this
// path, and every cell warms the same store.
func (d *Dispatcher) Evaluate(ctx context.Context, sc sweep.Scenario) (sweep.Cell, bool, error) {
	// The salted key is built once, and only when something consumes it.
	var key string
	if d.cache != nil || d.calib != nil {
		key = d.salt + sc.Key()
	}
	if d.cache != nil {
		if cell, ok := d.cache.Get(key); ok {
			d.cacheHits.Add(1)
			_, span := obs.StartSpanFor(ctx, "dispatch.eval", sc)
			span.End(obs.Bool("cached", true))
			d.observe(ctx, key, cell)
			return cell, true, nil
		}
	}
	evalCtx, span := obs.StartSpanFor(ctx, "dispatch.eval", sc)
	pt, err := d.rb.Evaluate(evalCtx, sc)
	if err != nil {
		span.End(obs.Bool("cached", false), obs.String("error", err.Error()))
		return eval.Point{}, false, err
	}
	span.End(obs.Bool("cached", false))
	if d.cache != nil {
		d.cache.Put(key, pt)
	}
	d.observe(ctx, key, pt)
	d.cells.Add(1)
	return pt, false, nil
}

// Run dispatches the spec across the fleet and returns the assembled
// result, rows in expansion order, curve metadata resolved through the
// shards' /v1/curve — the drop-in distributed form of Runner.Run.
func (d *Dispatcher) Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	start := time.Now()
	scens, keys, err := sweep.ExpandKeyed(spec)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpanKeyed(ctx, "dispatch.sweep", specTraceKey(spec))
	defer func() { span.End() }()
	span.SetAttr(obs.Int("cells", len(scens)))
	// Curve metadata comes through the fleet's /v1/curve, with the
	// transport's shard rotation and retry behind it — the same values an
	// in-process run resolves from its analytic backend.
	curves, err := sweep.ResolveCurves(ctx, scens, d.rb, 1)
	if err != nil {
		span.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	res := &sweep.Result{Spec: spec, Rows: make([]sweep.Row, len(scens)), Curves: curves}
	// Rows land directly at their grid index — no per-row channel
	// handoff, no reorder buffer; the deliver callback runs on the
	// merger goroutine alone.
	err = d.dispatch(ctx, spec, scens, keys, func(idx int, row sweep.Row) bool {
		res.Rows[idx] = row
		if row.Cached {
			res.CacheHits++
		} else {
			res.CacheMisses++
		}
		return true
	})
	if err != nil {
		span.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	span.SetAttr(obs.Int("cache_hits", res.CacheHits))
	span.SetAttr(obs.Int("cache_misses", res.CacheMisses))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Stream dispatches the spec and delivers cells on the returned channel
// in grid order (a reorder buffer holds back later cells until their
// predecessors arrive, so consumers see the exact sequence an in-process
// Run would report). The channel closes when the sweep finishes, fails
// — the error arrives as the final element, mirroring Runner.Stream —
// or ctx is cancelled.
func (d *Dispatcher) Stream(ctx context.Context, spec sweep.Spec) <-chan sweep.PointResult {
	out := make(chan sweep.PointResult)
	go func() {
		defer close(out)
		scens, keys, err := sweep.ExpandKeyed(spec)
		if err != nil {
			emit(ctx, out, sweep.PointResult{Err: err})
			return
		}
		ctx, span := obs.StartSpanKeyed(ctx, "dispatch.sweep", specTraceKey(spec))
		defer func() { span.End() }()
		span.SetAttr(obs.Int("cells", len(scens)))
		// The reorder buffer: rows delivered out of grid order wait for
		// their predecessors.
		next := 0
		pending := make(map[int]sweep.Row)
		err = d.dispatch(ctx, spec, scens, keys, func(idx int, row sweep.Row) bool {
			pending[idx] = row
			for {
				r, ok := pending[next]
				if !ok {
					return true
				}
				delete(pending, next)
				if !emit(ctx, out, sweep.PointResult{Row: r}) {
					return false
				}
				next++
			}
		})
		if err != nil && ctx.Err() == nil {
			span.SetAttr(obs.String("error", err.Error()))
			emit(ctx, out, sweep.PointResult{Err: err})
		}
	}()
	return out
}

// specTraceKey roots a dispatched sweep's trace at a stable key, so
// repeated dispatches of the same named spec are diffable.
func specTraceKey(spec sweep.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "anonymous"
}

// span is a half-open range [start, end) of grid indices.
type span struct{ start, end int }

// indexedRow is one received cell travelling to the merger.
type indexedRow struct {
	idx int
	row sweep.Row
}

// run is the per-sweep state shared by the shard workers and the merger.
type run struct {
	d      *Dispatcher
	spec   json.RawMessage // the wire form every range request repeats
	scens  []sweep.Scenario
	keys   []string // cache keys, salted when a cache or observer reads them
	ctx    context.Context
	cancel context.CancelFunc
	spanc  chan span // cold ranges; capacity = cold cells, so requeue never blocks
	resc   chan indexedRow

	failMu  sync.Mutex
	failErr error
}

// fail records the sweep's terminal error (first one wins) and cancels
// the run.
func (r *run) fail(err error) {
	r.failMu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.failMu.Unlock()
	r.cancel()
}

func (r *run) err() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failErr
}

// dispatch runs one sweep over the expanded grid (keys[i] is
// scens[i].Key()): cache pass, shard workers, merge. Rows reach
// the caller through deliver — always from this goroutine, in arrival
// order (warm cells first); deliver returning false abandons the sweep
// (the consumer is gone). The returned error is the sweep's terminal
// failure, nil on completion, cancellation or abandonment.
func (d *Dispatcher) dispatch(ctx context.Context, spec sweep.Spec, scens []sweep.Scenario, keys []string, deliver func(int, sweep.Row) bool) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Cache pass: warm cells deliver immediately, cold indices become
	// the work list. The expansion's keys are salted once here — when a
	// cache or an observer will read them — and reused when received
	// cells are written back and observed for calibration.
	if d.cache != nil || d.calib != nil {
		salted := make([]string, len(keys))
		for i, key := range keys {
			salted[i] = d.salt + key
		}
		keys = salted
	}
	var cold []int
	for i, sc := range scens {
		if d.cache != nil {
			if cell, ok := d.cache.Get(keys[i]); ok {
				d.cacheHits.Add(1)
				d.observe(ctx, keys[i], cell)
				if !deliver(i, sweep.Row{Scenario: sc, Cell: cell, Cached: true}) {
					return nil
				}
				continue
			}
		}
		cold = append(cold, i)
	}
	if len(cold) == 0 {
		return nil // fully warm: nothing to dispatch
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("dispatch: encoding spec: %w", err)
	}
	remaining := len(cold)
	d.queueDepth.Add(int64(len(cold)))
	defer func() { d.queueDepth.Add(-int64(remaining)) }()

	r := &run{
		d: d, spec: specJSON, scens: scens, keys: keys,
		ctx: runCtx, cancel: cancel,
		spanc: make(chan span, len(cold)),
		resc:  make(chan indexedRow, len(cold)),
	}
	for _, sp := range partition(cold, d.spanSize(len(cold))) {
		r.spanc <- sp
	}

	var wg sync.WaitGroup
	for _, addr := range d.addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			r.worker(addr)
		}(addr)
	}
	allDead := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDead)
	}()
	defer func() {
		cancel()
		<-allDead // no worker outlives the sweep
	}()

	for remaining > 0 && runCtx.Err() == nil {
		select {
		case ir := <-r.resc:
			remaining--
			d.queueDepth.Add(-1)
			if !deliver(ir.idx, ir.row) {
				return nil // consumer gone; deferred cancel unwinds the workers
			}
		case <-runCtx.Done():
		case <-allDead:
			// Workers send their rows before exiting, so everything
			// delivered before the fleet died is already buffered in
			// resc — drain it with priority before concluding; the last
			// shard may have streamed every remaining cell and only then
			// died short of a clean EOF.
			for remaining > 0 {
				select {
				case ir := <-r.resc:
					remaining--
					d.queueDepth.Add(-1)
					if !deliver(ir.idx, ir.row) {
						return nil
					}
					continue
				default:
				}
				break
			}
			if remaining > 0 {
				r.fail(fmt.Errorf("dispatch: all %d shard(s) ejected with %d cell(s) outstanding", len(d.addrs), remaining))
			}
		}
	}
	return r.err()
}

// worker pulls ranges off the queue and dispatches them to one shard
// until the run ends or the shard is ejected.
func (r *run) worker(addr string) {
	fails := 0
	for {
		var sp span
		select {
		case sp = <-r.spanc:
		case <-r.ctx.Done():
			return
		}
		got, err := r.dispatchSpan(addr, sp)
		if err == nil {
			fails = 0
			r.d.setHealth(addr, ShardHealthy)
			continue
		}
		holdOff, transient := eval.Transient(err)
		if !transient {
			// A scenario-level verdict, a request the shard rejects
			// (version or configuration skew, not load) or a protocol
			// breach: no shard will answer differently, so the sweep fails.
			r.fail(err)
			return
		}
		rest := remainder(sp, got)
		for _, s := range rest {
			r.spanc <- s // capacity covers every cold cell; never blocks
		}
		r.d.requeues.Add(int64(len(rest)))
		if r.ctx.Err() != nil {
			return
		}
		fails++
		r.d.failures.Add(1)
		if fails >= r.d.maxFails {
			r.d.ejected.Add(1)
			r.d.setHealth(addr, ShardEjected)
			return
		}
		r.d.setHealth(addr, ShardBackoff)
		// The remainder is already back in the queue for the survivors;
		// this shard sits out its backoff, or the hold-off it asked for.
		delay := max(min(r.d.backoff<<(fails-1), 5*time.Second), holdOff)
		select {
		case <-time.After(delay):
		case <-r.ctx.Done():
			return
		}
	}
}

// dispatchSpan sends one range to addr — one attempt, through the fleet
// transport — and forwards its cells. It returns the set of delivered
// indices alongside any error, so the caller requeues exactly the
// remainder; eval.Transient tells a shard failure (connection error,
// 5xx/429, torn, short or stalled stream) from a scenario verdict or
// protocol breach.
func (r *run) dispatchSpan(addr string, sp span) (got map[int]bool, err error) {
	r.d.batches.Add(1)
	spanCtx, rspan := obs.StartSpanKeyed(r.ctx, "dispatch.range",
		fmt.Sprintf("%s:%d-%d", addr, sp.start, sp.end))
	defer func() {
		if err != nil {
			rspan.SetAttr(obs.String("error", err.Error()))
		}
		rspan.End(obs.String("shard", addr), obs.Int("start", sp.start),
			obs.Int("end", sp.end), obs.Int("cells", len(got)))
	}()
	body, err := json.Marshal(eval.PartRequest{Spec: r.spec, Start: sp.start, End: sp.end})
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding part request: %w", err)
	}
	got = make(map[int]bool, sp.end-sp.start)
	err = r.d.rb.Stream(spanCtx, addr, "/v1/sweep/part", body, sp.start, sp.end, func(it *eval.BatchItem) error {
		sc := r.scens[it.Index]
		if it.Error != "" {
			return fmt.Errorf("dispatch: scenario %d (%s, load %v): %s",
				sc.Index, sc.CurveKey(), sc.Load.Value, it.Error)
		}
		got[it.Index] = true
		if r.d.cache != nil {
			r.d.cache.Put(r.keys[it.Index], *it.Point)
		}
		r.d.observe(r.ctx, r.keys[it.Index], *it.Point)
		r.d.cells.Add(1)
		r.resc <- indexedRow{idx: it.Index, row: sweep.Row{Scenario: sc, Cell: *it.Point}}
		return nil
	})
	return got, err
}

// partition splits the cold grid indices into contiguous spans of at
// most size cells each: consecutive indices group into runs (cache hits
// punch holes in the grid), runs split at the size bound.
func partition(cold []int, size int) []span {
	var spans []span
	for i := 0; i < len(cold); {
		j := i
		for j+1 < len(cold) && cold[j+1] == cold[j]+1 && j+1-i < size {
			j++
		}
		spans = append(spans, span{cold[i], cold[j] + 1})
		i = j + 1
	}
	return spans
}

// remainder returns the undelivered sub-spans of sp.
func remainder(sp span, got map[int]bool) []span {
	var out []span
	start := -1
	for i := sp.start; i < sp.end; i++ {
		if got[i] {
			if start >= 0 {
				out = append(out, span{start, i})
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, span{start, sp.end})
	}
	return out
}

// emit sends pr unless ctx has ended; it reports whether the consumer is
// still listening.
func emit(ctx context.Context, out chan<- sweep.PointResult, pr sweep.PointResult) bool {
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
