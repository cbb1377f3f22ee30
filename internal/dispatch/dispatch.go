// Package dispatch is the distributed sweep scheduler: the fleet
// implementation of sweep.Scheduler. The grid engine (sweep.Runner) does
// everything a sweep has in common — expansion, the cache pass and
// write-back, progress, the result — and hands the cold
// cells of the grid to this package, which partitions them into
// contiguous index ranges and dispatches each range to a worker shard
// over the list route (POST /v1/sweep/part — spec plus range in, NDJSON
// cells out); a Run's curve context is one more request with
// the same spec (POST /v1/curve), whatever the cache holds, and a cold
// cell Evaluate asks for alone is one POST /v1/eval. The Scheduler is
// the fleet's only way into the engine: the Runner keeps no fleet
// backend. It runs in the process that asks (cmd/sweep -shards, cmd/plan
// -shards, a program of your own); a shard is a plain sweepd and never
// coordinates.
//
// Scheduling is static range partitioning with work stealing on top: the
// cold cells (the engine consults the shared cache first, so warm cells
// never cross the wire) are split into contiguous spans that sit in a
// shared queue; every shard runs one puller. A shard that fails —
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
	"errors"
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
// accumulate over its lifetime). It is a sweep.Runner — Run, Stream
// (completion order, as every stream is), Evaluate and the Cache
// and Progress fields are the embedded engine's own — whose Scheduler is
// the dispatcher itself, so it drops in anywhere a Runner does, including
// as the capacity planner's engine (plan.Engine): Run carries the coarse
// grids as ranges, Evaluate the operating points and certifications with
// shard rotation and retry (Compute), both cached under Scenario.Key like
// any local run's cells; the plan's load search stays in process.
type Dispatcher struct {
	*sweep.Runner
	addrs    []string
	batch    int
	ropts    []eval.RemoteOption // transport settings, consumed by New
	rb       *eval.RemoteBackend // the fleet transport: every request goes through it
	backoff  time.Duration
	maxFails int

	batches, requeues, failures, ejected atomic.Int64
}

// Option configures a Dispatcher.
type Option func(*Dispatcher)

// WithBatch bounds how many cells one dispatched range may carry; 0 (the
// default) auto-sizes to roughly four ranges per shard, so work stealing
// has granularity without per-range overhead dominating.
func WithBatch(n int) Option { return func(d *Dispatcher) { d.batch = n } }

// WithCache attaches the engine's shared result cache: warm cells are
// served locally and only cold cells are dispatched; every streamed cell
// is written back.
func WithCache(c sweep.CacheStore) Option { return func(d *Dispatcher) { d.Cache = c } }

// WithTransport sends every request of the dispatcher — range streams,
// per-cell Evaluate and /v1/curve requests — through rt, with
// eval.WithTransport's semantics: the deadlines stay the fleet
// transport's.
func WithTransport(rt http.RoundTripper) Option {
	return func(d *Dispatcher) { d.ropts = append(d.ropts, eval.WithTransport(rt)) }
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
		Runner:   &sweep.Runner{},
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
	d.Scheduler = d
	return d, nil
}

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
	hits, fresh := d.Counts()
	return Stats{
		CacheHits:     hits,
		Cells:         fresh,
		Batches:       d.batches.Load(),
		Requeues:      d.requeues.Load(),
		ShardFailures: d.failures.Load(),
		EjectedShards: d.ejected.Load(),
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

// span is a half-open range [start, end) of grid indices.
type span struct{ start, end int }

// run is the per-sweep state shared by the shard workers.
type run struct {
	d     *Dispatcher
	spec  []byte // the spec's compact JSON, spliced into every range request
	g     *sweep.Grid
	land  func(lo, hi int)
	ctx   context.Context
	fail  context.CancelCauseFunc // ends the run; the first cause is its terminal error
	spanc chan span               // cold ranges; capacity = cold cells, so requeue never blocks
	// left counts the cold cells not yet delivered; whoever delivers the
	// last one closes done.
	left atomic.Int64
	done chan struct{}
}

// Schedule implements sweep.Scheduler: it computes the grid's cold cells
// on the fleet — range partition, one puller per shard, work stealing,
// backoff and ejection — writing each cell into its row and landing it
// as it comes off a shard's stream. The returned error is the sweep's
// terminal failure: a scenario's verdict, a protocol breach, or every
// shard ejected with cells outstanding.
func (d *Dispatcher) Schedule(ctx context.Context, g *sweep.Grid, cold int, land func(lo, hi int)) error {
	ctx, dspan := obs.StartSpanKeyed(ctx, "dispatch.sweep", g.Spec.Name)
	defer dspan.End(obs.Int("cells", cold))
	specJSON, err := json.Marshal(g.Spec)
	if err != nil {
		return fmt.Errorf("dispatch: encoding spec: %w", err)
	}
	runCtx, fail := context.WithCancelCause(ctx)
	r := &run{
		d: d, spec: specJSON, g: g, land: land,
		ctx: runCtx, fail: fail,
		spanc: make(chan span, cold),
		done:  make(chan struct{}),
	}
	r.left.Store(int64(cold))
	for _, sp := range partition(g, d.spanSize(cold)) {
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

	select {
	case <-r.done:
	case <-runCtx.Done():
	case <-allDead:
		// Workers deliver before they exit, so the count is final: the
		// last shard may have streamed every remaining cell and only then
		// died short of a clean EOF.
		if left := r.left.Load(); left > 0 {
			fail(fmt.Errorf("dispatch: all %d shard(s) ejected with %d cell(s) outstanding", len(d.addrs), left))
		}
	}
	err = context.Cause(runCtx) // nil unless the run failed or ctx ended
	fail(nil)
	<-allDead // no worker outlives the sweep
	return err
}

// Compute implements sweep.Scheduler: one cell outside a grid — an
// Evaluate probe — in one /v1/eval request through the transport's retry
// loop (shard rotation, backoff, Retry-After, bounded by ctx). Every
// shard runs the built-in stack, so the answer is the cell an in-process
// runner computes and the engine caches it under plain Scenario.Key.
func (d *Dispatcher) Compute(ctx context.Context, sc sweep.Scenario) (sweep.Cell, error) {
	return d.rb.Evaluate(ctx, sc)
}

// Curves implements sweep.Scheduler: the grid's curve context in one
// /v1/curve request carrying the spec, through the transport's retry
// loop (shard rotation, backoff, Retry-After, bounded by ctx). One shard
// answers every curve on its own pool; a model's verdict on a curve is
// permanent and names the curve. An answer of any other length than
// g.Curves is a protocol breach, permanent too.
func (d *Dispatcher) Curves(ctx context.Context, g *sweep.Grid) ([]eval.CurveDesc, error) {
	specJSON, err := json.Marshal(g.Spec)
	if err != nil {
		return nil, fmt.Errorf("dispatch: encoding spec: %w", err)
	}
	descs, err := d.rb.Curves(ctx, specJSON)
	if err != nil {
		return nil, fmt.Errorf("dispatch: curves: %w", err)
	}
	if len(descs) != len(g.Curves) {
		return nil, fmt.Errorf("dispatch: curves: the fleet described %d curve(s) of a %d-curve grid", len(descs), len(g.Curves))
	}
	return descs, nil
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
			return
		}
		// The remainder is already back in the queue for the survivors;
		// this shard sits out its backoff, or the hold-off it asked for.
		delay := max(eval.Backoff(r.d.backoff, fails), holdOff)
		select {
		case <-time.After(delay):
		case <-r.ctx.Done():
			return
		}
	}
}

// rangeKey names a dispatch.range span: the shard and the range. It is
// formatted only when the span is recorded.
type rangeKey struct {
	addr string
	sp   span
}

func (k rangeKey) Key() string { return fmt.Sprintf("%s:%d-%d", k.addr, k.sp.start, k.sp.end) }

// dispatchSpan sends one range to addr — one attempt, through the fleet
// transport — and forwards its cells. It returns which cells of the
// range were delivered (got[i] for index sp.start+i) alongside any
// error, so the caller requeues exactly the remainder; eval.Transient
// tells a shard failure (connection error, 5xx/429, torn, short or
// stalled stream) from a scenario verdict or protocol breach.
func (r *run) dispatchSpan(addr string, sp span) (got []bool, err error) {
	r.d.batches.Add(1)
	spanCtx, rspan := obs.StartSpanFor(r.ctx, "dispatch.range", rangeKey{addr, sp})
	n := 0 // cells delivered
	defer func() {
		if err != nil {
			rspan.SetAttr(obs.String("error", err.Error()))
		}
		rspan.End(obs.String("shard", addr), obs.Int("start", sp.start),
			obs.Int("end", sp.end), obs.Int("cells", n))
	}()
	body := eval.AppendPartRequest(nil, r.spec, sp.start, sp.end)
	got = make([]bool, sp.end-sp.start)
	err = r.d.rb.Stream(spanCtx, addr, "/v1/sweep/part", body, sp.start, sp.end, func(it *eval.PartItem) error {
		if it.Error != "" {
			return r.g.CellError(it.Index, errors.New(it.Error))
		}
		got[it.Index-sp.start] = true
		n++
		r.g.Rows[it.Index].Cell = *it.Point
		r.land(it.Index, it.Index+1)
		if r.left.Add(-1) == 0 {
			close(r.done)
		}
		return nil
	})
	return got, err
}

// partition splits the grid's cold rows (Cached false) into contiguous
// spans of at most size cells each: consecutive cold rows group into runs
// (cache hits punch holes in the grid), runs split at the size bound.
func partition(g *sweep.Grid, size int) []span {
	var spans []span
	for i := 0; i < len(g.Rows); {
		if g.Rows[i].Cached {
			i++
			continue
		}
		j := i + 1
		for j < len(g.Rows) && !g.Rows[j].Cached && j-i < size {
			j++
		}
		spans = append(spans, span{i, j})
		i = j
	}
	return spans
}

// remainder returns the undelivered sub-spans of sp, whose index
// sp.start+i got[i] reports delivered.
func remainder(sp span, got []bool) []span {
	var out []span
	start := -1
	for i := sp.start; i < sp.end; i++ {
		if got[i-sp.start] {
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
