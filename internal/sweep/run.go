package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

// Runner is the grid engine: every sweep in the stack — local or
// dispatched across a fleet — is one Runner doing expand → cache pass →
// schedule the cold cells → write back → hand rows to the caller, under
// Run, Stream and Evaluate. A curve is its unit of work: a grid is
// expanded into curves, each looked up in one GetCurve and
// written back in one PutCurve; the local pool claims a model-only
// curve's cold cells whole and each backend answers them in one call
// (eval.CurveEvaluator); a cell is answered in place, in its row of the
// grid; and a cell's full key is joined only where one leaves the
// process. The zero value is ready to
// use: it sizes the pool to GOMAXPROCS and evaluates with the built-in
// stack (the analytic model, the simulator and the bound calculus; the
// last two answer only the cells that ask for them); without a Cache, no
// results are memoized (a single Run never revisits a cell — Expand
// deduplicates). Construct with NewRunner to configure via functional
// options, or set the fields directly — before the runner's first use,
// which builds the stack once and keeps it, so models, Eq. 26 anchors and
// simulator networks carry over from one call to the next. A Runner must
// not be copied after first use.
type Runner struct {
	// Workers bounds the worker pool; 0 defers to the spec, then to
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted and filled a curve at a time —
	// one GetCurve per curve before the cold cells are scheduled, one
	// PutCurve when the last cold cell of a curve lands, and, when a call
	// fails or is cancelled, one more for each curve it left partial —
	// unless Backends is set: a custom list is never cached. A curve key
	// and a token capture every result-affecting input, so a cache may
	// safely outlive any one spec — or, with a persistent CacheStore such
	// as internal/store's, the process itself — and whoever computed a
	// cell (this process, a shard, a whole fleet) wrote the same line.
	Cache CacheStore
	// Progress, when non-nil, receives an Event per completed cell. It is
	// called from a single goroutine (events arrive in completion order,
	// warm cells first, never concurrently).
	Progress func(Event)
	// Backends, when non-nil, replaces the built-in stack — for tests and
	// measurement harnesses. Every scenario is offered to every backend in
	// order — a curve's run of cells in one call to a backend that
	// answers curves, else one Evaluate per cell — and their points are
	// merged into one cell; backends skip the scenarios that do not
	// concern them (the simulator skips cells with WithSim unset). A runner with a custom list never consults Cache, so
	// no cell of such a list is ever served as the built-in stack's.
	Backends []eval.Evaluator
	// Scheduler, when non-nil, computes every cold cell — a grid's, and
	// Evaluate's one at a time — and describes grid curves in place of
	// the local worker pool. It is the one seam a fleet plugs into, not a
	// tuning knob: dispatch.New sets it.
	Scheduler Scheduler

	// Built once by backends: Backends, or the built-in stack.
	once  sync.Once
	stack []eval.Evaluator

	// Lifetime cell counts: served from cache, computed fresh.
	hits, fresh atomic.Int64
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

// WithBackends replaces the default evaluator list; the runner then
// consults no cache (see Runner.Backends).
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

// backends returns the runner's evaluator list, built on first use:
// Backends when set, else the built-in stack. This is the one place that
// stack is assembled (make lint keeps it so): the analytic model, and the
// flit-level simulator and the worst-case bound calculus anchored on it.
// The last two answer a cell that did not opt in (WithSim, WithBounds)
// with the empty point, so one list serves every cell.
func (r *Runner) backends() []eval.Evaluator {
	r.once.Do(func() {
		r.stack = r.Backends
		if r.stack == nil {
			ab := eval.NewAnalyticBackend()
			r.stack = []eval.Evaluator{ab, eval.NewSimBackend(ab), bounds.New(ab)}
		}
	})
	return r.stack
}

// caches reports whether the runner reads and writes Cache: it has one,
// and answers with the built-in stack (or a Scheduler running it).
func (r *Runner) caches() bool { return r.Cache != nil && r.Backends == nil }

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

// CellError names the cell a failure belongs to; every scheduler reports
// a per-cell failure through it, so a failing sweep reads the same
// whichever way its cold cells were computed.
func (g *Grid) CellError(i int, err error) error {
	sc := &g.Rows[i].Scenario
	return fmt.Errorf("sweep: scenario %d (%s, load %v): %w", sc.Index, sc.CurveKey(), sc.Load.Value, err)
}

// Scheduler is where cold cells are computed — the one thing a local
// runner and a fleet do differently. Schedule computes the cold rows of
// g — cold of them, the rows the cache pass did not serve (Cached false)
// — in place: it writes each one's Cell, then hands land a run of
// consecutive cold rows [lo, hi) of one curve it has written. Each cold
// row lands exactly once, from any goroutine (land never blocks).
// Schedule returns when every cold row has landed, when a cell fails (the
// CellError, first failure wins; no further cell need be computed) or
// when ctx ends. Compute answers one cold cell outside a grid
// (Evaluate's). Curves describes the grid's curves: one eval.CurveDesc
// per g.Curves entry, in order, or an error naming the curve the model
// rejects. Everything around them — expansion, the cache pass before and
// the write-back after, Progress, the result — is the
// Runner's. The local worker pool is the default; internal/dispatch's
// fleet scheduler is the other.
type Scheduler interface {
	Schedule(ctx context.Context, g *Grid, cold int, land func(lo, hi int)) error
	Compute(ctx context.Context, sc Scenario) (Cell, error)
	Curves(ctx context.Context, g *Grid) ([]eval.CurveDesc, error)
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
func (p localPool) Schedule(ctx context.Context, g *Grid, cold int, land func(lo, hi int)) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	c := &claims{
		sched: p, g: g, hi: len(g.Rows), land: land,
		fail: func(i int, err error) bool {
			cancel(g.CellError(i, err)) // fail fast; the first cause stands
			return false
		},
	}
	c.run(ctx, p.r.workers(g.Spec, cold))
	return context.Cause(ctx)
}

// each calls fn(0) … fn(n-1) on up to `workers` goroutines — the bounded
// pool under curve resolution. Workers claim indices off a shared
// counter, so nothing about a result depends on scheduling; once ctx has
// ended no further index is claimed. It returns when every claimed call
// has.
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

// claims is one pass of a pool over the cold cells of [lo, hi) of a grid,
// a claim at a time. On the local pool, an untraced run claims a
// model-only curve's cold cells whole, and a simulated curve's a cell at
// a time — a simulation is long, and a curve claimed whole would run its
// loads in series however many workers wait — and answers each run of
// consecutive cold cells of a claim as one segment: one call per backend
// (answer), one landing. A traced run claims each cell by itself, a
// one-cell segment under its own eval.cell span; a Scheduler's cells
// (EvaluateList on a fleet) each go through compute.
type claims struct {
	sched  Scheduler
	g      *Grid
	lo, hi int
	// slab and warm are EvaluateList's, over a grid shared between calls:
	// cell i is answered into slab[i-lo], and warm[i-lo] is set when it
	// was served from cache (warm is nil when nothing was). When slab is
	// nil the cells are Run's own, answered in place, and a served row is
	// Cached.
	slab []Cell
	warm []bool
	// land takes a run of answered cells in; fail takes a cell's error
	// and says whether to claim on.
	land func(lo, hi int)
	fail func(i int, err error) bool

	// local is the runner whose backends answer a segment: the local
	// pool's, nil on a Scheduler, whose cells each go through compute.
	local  *Runner
	traced bool
	next   atomic.Int64
}

// run claims on `workers` goroutines, the caller's among them, until the
// cells run out, ctx ends or fail says stop.
func (c *claims) run(ctx context.Context, workers int) {
	if lp, ok := c.sched.(localPool); ok {
		c.local = lp.r
	}
	c.traced = obs.Enabled(ctx)
	c.next.Store(int64(c.lo))
	workers = max(workers, 1)
	segs := make([]segment, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(seg *segment) {
			defer wg.Done()
			c.work(ctx, seg)
		}(&segs[w])
	}
	c.work(ctx, &segs[0])
	wg.Wait()
}

// work is one worker: claim, answer, land, until there is nothing left.
func (c *claims) work(ctx context.Context, seg *segment) {
	for ctx.Err() == nil {
		lo, hi, cv, ok := c.claim()
		if !ok {
			return
		}
		for i := lo; i < hi; {
			if !c.cold(i) {
				i++
				continue
			}
			j := i + 1
			for j < hi && c.cold(j) {
				j++
			}
			if !c.answer(ctx, seg, cv, i, j) {
				return
			}
			i = j
		}
	}
}

// claim takes the next claim off the shared counter: the cells [lo, hi)
// of curve cv.
func (c *claims) claim() (lo, hi, cv int, ok bool) {
	for {
		i := int(c.next.Load())
		if i >= c.hi {
			return 0, 0, 0, false
		}
		cv = c.g.curveOf(i)
		end := i + 1
		if c.whole(cv) {
			end = min(c.g.Curves[cv].End, c.hi)
		}
		if c.next.CompareAndSwap(int64(i), int64(end)) {
			return i, end, cv, true
		}
	}
}

// whole reports whether curve cv is claimed whole.
func (c *claims) whole(cv int) bool {
	return c.local != nil && !c.traced && !c.g.Rows[c.g.Curves[cv].Start].Scenario.WithSim
}

// cold reports whether cell i was left for the pool.
func (c *claims) cold(i int) bool {
	if c.slab == nil {
		return !c.g.Rows[i].Cached
	}
	return c.warm == nil || !c.warm[i-c.lo]
}

// answer computes the cold cells [lo, hi) of curve cv and lands them; a
// cell that fails goes to fail, and the cells after it are answered on
// unless fail says stop, which answer reports.
func (c *claims) answer(ctx context.Context, seg *segment, cv, lo, hi int) bool {
	for lo < hi {
		var (
			n   int
			err error
		)
		if c.local == nil {
			var cell Cell
			if cell, err = compute(ctx, c.sched, c.g.cellKey(lo)); err == nil {
				*c.point(lo) = cell
				n = 1
			}
		} else {
			*seg = segment{rows: c.g.Rows[lo:hi], curve: c.g.Curves[cv].Key}
			if c.slab != nil {
				seg.slab = c.slab[lo-c.lo : hi-c.lo]
			}
			if !c.traced {
				n, err = c.local.answer(ctx, seg)
			} else { // a traced claim is one cell, under its own span
				sctx, span := obs.StartSpanKeyed(ctx, "eval.cell", c.g.cellKey(lo).Key())
				n, err = c.local.answer(sctx, seg)
				endCell(span, err)
			}
		}
		if n > 0 {
			c.land(lo, lo+n)
		}
		if err == nil {
			return true
		}
		if !c.fail(lo+n, err) {
			return false
		}
		lo += n + 1
	}
	return true
}

// point returns where cell i's answer goes.
func (c *claims) point(i int) *Cell {
	if c.slab != nil {
		return &c.slab[i-c.lo]
	}
	return &c.g.Rows[i].Cell
}

// segment is a run of consecutive cells of one curve answered in one call
// per backend (eval.Cells): cell j's scenario is rows[j]'s, and its point
// rows[j].Cell, in place — or, over a grid shared between calls
// (EvaluateList's), slab[j].
type segment struct {
	rows  []Row
	slab  []Cell
	curve string // the curve's key; "" when it was never built
	cur   int    // the cell last handed out: the one a panic fails
}

// Len implements eval.Cells.
func (s *segment) Len() int { return len(s.rows) }

// Cell implements eval.Cells.
func (s *segment) Cell(j int) (*Scenario, *eval.Point) {
	s.cur = j
	if s.slab != nil {
		return &s.rows[j].Scenario, &s.slab[j]
	}
	return &s.rows[j].Scenario, &s.rows[j].Cell
}

// trim cuts the segment to its first n cells.
func (s *segment) trim(n int) {
	s.rows = s.rows[:n]
	if s.slab != nil {
		s.slab = s.slab[:n]
	}
}

// answer computes the cells of seg on the runner's backends in turn,
// merging each backend's points into them. It returns how many leading
// cells are complete: all of them, or those before the cell whose error
// it returns — every backend after the one that failed answers only
// those.
func (r *Runner) answer(ctx context.Context, seg *segment) (int, error) {
	for j := range seg.rows {
		_, pt := seg.Cell(j)
		*pt = eval.NewPoint()
	}
	var failed error
	for _, be := range r.backends() {
		if len(seg.rows) == 0 {
			break
		}
		if n, err := evaluate(ctx, be, seg); err != nil {
			seg.trim(n)
			failed = err
		}
	}
	return len(seg.rows), failed
}

// evaluate is where a backend meets a segment: in one call when it
// answers curves (eval.CurveEvaluator), else in the one adapter loop,
// eval.EvaluateEach, a cell at a time (make lint keeps it the only one in
// this package). A backend that panics fails the cell it was answering,
// not the process — a request must never be able to kill a shard.
func evaluate(ctx context.Context, be eval.Evaluator, seg *segment) (n int, err error) {
	seg.cur = 0
	defer func() {
		if p := recover(); p != nil {
			k := cellKey{&seg.rows[seg.cur].Scenario, seg.curve}
			n, err = seg.cur, fmt.Errorf("backend panic on cell %s: %v", k.Key(), p)
		}
	}()
	if ce, ok := be.(eval.CurveEvaluator); ok {
		n, err = ce.EvaluateCurve(ctx, seg)
	} else {
		n, err = eval.EvaluateEach(ctx, be, seg)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", be.Name(), err)
	}
	return n, err
}

// probe is the scratch of a one-cell call, pooled: Evaluate's GetCurve
// and PutCurve, and Compute's one-row segment. A slice of a local array
// would escape through the interface call, and a one-cell probe must
// cost no more than its key.
type probe struct {
	tok   [1]eval.Token
	cell  [1]Cell
	found [1]bool
	row   [1]Row
	seg   segment
}

var probes = sync.Pool{New: func() any { return new(probe) }}

// Compute implements Scheduler: the scenario is one segment, offered to
// every backend, and their points merge into one cell.
func (p localPool) Compute(ctx context.Context, sc Scenario) (Cell, error) {
	pr := probes.Get().(*probe)
	defer probes.Put(pr)
	pr.row[0].Scenario = sc
	pr.seg = segment{rows: pr.row[:]}
	if _, err := p.r.answer(ctx, &pr.seg); err != nil {
		return Cell{}, err
	}
	return pr.row[0].Cell, nil
}

// cellKey is a cell's key, unbuilt: its scenario and its curve's key,
// joined (eval.AppendJoinKey) only where the key leaves the process — a
// traced span, an error message.
type cellKey struct {
	sc    *Scenario
	curve string // "" when the curve's key was never built
}

// cellKey returns cell i's unbuilt key.
func (g *Grid) cellKey(i int) cellKey {
	return cellKey{&g.Rows[i].Scenario, g.Curves[g.curveOf(i)].Key}
}

// Key returns the cell's full key, Scenario.Key.
func (k cellKey) Key() string {
	if k.curve == "" {
		return k.sc.Key()
	}
	var buf [256]byte
	return string(eval.AppendJoinKey(buf[:0], k.curve, k.sc.Token()))
}

// compute answers one cold cell through sched.Compute under its eval.cell
// span: a Scheduler's and Evaluate's. A Compute that panics fails its
// cell, not the process.
func compute(ctx context.Context, sched Scheduler, k cellKey) (cell Cell, err error) {
	if err := ctx.Err(); err != nil {
		return Cell{}, err
	}
	var span *obs.Span
	if obs.Enabled(ctx) {
		ctx, span = obs.StartSpanKeyed(ctx, "eval.cell", k.Key())
	}
	defer func() {
		if p := recover(); p != nil {
			cell, err = Cell{}, fmt.Errorf("backend panic on cell %s: %v", k.Key(), p)
		}
		endCell(span, err)
	}()
	return sched.Compute(ctx, *k.sc)
}

// endCell ends a computed cell's eval.cell span (nil when untraced).
func endCell(span *obs.Span, err error) {
	if err != nil {
		span.End(obs.Bool("cached", false), obs.String("error", err.Error()))
		return
	}
	span.End(obs.Bool("cached", false))
}

// served traces one cell served from the cache as a cached eval.cell
// span.
func (r *Runner) served(ctx context.Context, k cellKey) {
	if obs.Enabled(ctx) {
		_, span := obs.StartSpanKeyed(ctx, "eval.cell", k.Key())
		span.End(obs.Bool("cached", true))
	}
}

// Evaluate answers one scenario through the runner's cache and its
// Scheduler's Compute: the single-cell form of Run, behind the serving
// layer's /v1/eval and the capacity planner's probes. It reports whether
// the cell was served from cache; a fresh cell is stored, as a one-cell
// PutCurve, before returning. The curve key is built only when the
// runner caches.
func (r *Runner) Evaluate(ctx context.Context, sc Scenario) (Cell, bool, error) {
	var (
		curve string // kept out of k: passed to the cache, it would take &sc to the heap
		pr    *probe
	)
	if r.caches() {
		var buf [256]byte
		curve = string(sc.AppendCurveKey(buf[:0], sc.Workload.Canonical()))
		pr = probes.Get().(*probe)
		defer probes.Put(pr)
		pr.tok[0] = sc.Token()
		if r.Cache.GetCurve(curve, pr.tok[:], pr.cell[:], pr.found[:]) > 0 {
			r.hits.Add(1)
			r.served(ctx, cellKey{&sc, curve})
			return pr.cell[0], true, nil
		}
	}
	k := cellKey{&sc, curve}
	cell, err := compute(ctx, r.scheduler(), k)
	if err != nil {
		return Cell{}, false, err
	}
	if pr != nil {
		pr.cell[0] = cell
		r.Cache.PutCurve(curve, pr.tok[:], pr.cell[:])
	}
	r.fresh.Add(1)
	return cell, false, nil
}

// EvaluateList answers the cells [lo, hi) of g — an expanded grid's, or
// an explicit list's (ListGrid) — through the cache, a curve at a time,
// and the runner's pool, claiming as Run's does: the list form of
// Evaluate, behind /v1/batch and /v1/sweep/part. g may be shared between
// concurrent calls (a shard memoizes its grids): its rows are only read,
// and the cells are answered into a slab the length of the range. Every
// cell's outcome — its point, or its own error; one failure does not
// stop the others, not even on its own curve — reaches fn as fn(i, …)
// with i its grid index, cached cells first, fresh ones as they complete,
// from the pool's goroutines, so fn must be safe for concurrent calls.
// Cells that fail only because ctx ended are not reported. It returns
// when every cell is answered or ctx has ended, with every landed cell
// written back.
func (r *Runner) EvaluateList(ctx context.Context, g *Grid, lo, hi int, fn func(i int, cell Cell, err error)) {
	if lo >= hi {
		return
	}
	p := r.newPass(g, lo, hi, true)
	cold, _ := p.lookup(ctx, func(i int, cell Cell) bool {
		fn(i, cell, nil)
		return true
	})
	if cold == 0 {
		return
	}
	c := &claims{
		sched: r.scheduler(), g: g, lo: lo, hi: hi, slab: p.slab, warm: p.warm,
		land: func(a, b int) {
			p.land(a, b)
			for i := a; i < b; i++ {
				fn(i, p.slab[i-lo], nil)
			}
		},
		fail: func(i int, err error) bool {
			if ctx.Err() == nil { // else cancellation, not the scenario's fault
				fn(i, Cell{}, err)
			}
			return true
		},
	}
	c.run(ctx, r.workers(Spec{}, cold))
	p.flush()
}

// pass is one Runner call's cache traffic over the cells [lo, hi) of a
// grid, a curve at a time. lookup takes each curve's cached cells in one
// GetCurve. land takes a run of fresh cells of one curve in, and the
// landing that completes a curve's cold cells puts them in one PutCurve;
// flush puts what a failed or cancelled call left of its partial curves,
// so a cell that landed is cached whatever happens to the rest of its
// curve.
type pass struct {
	r      *Runner
	g      *Grid
	lo, hi int
	c0     int        // the curve holding cell lo
	cache  CacheStore // nil when the runner does not cache

	// slab and warm are EvaluateList's (see claims); nil for Run, whose
	// cells land in the grid's rows and whose served rows are Cached.
	slab []Cell
	warm []bool

	// Scratch one curve long: lookup's, then, under mu, put's.
	toks  []eval.Token
	cells []Cell
	found []bool

	// landed[i-lo] says cell i has landed; left[c-c0] counts the cold
	// cells of curve c yet to land.
	landed []bool
	left   []atomic.Int32
	mu     sync.Mutex
}

// newPass prepares a pass over the cells [lo, hi) of g; list asks for
// EvaluateList's slab.
func (r *Runner) newPass(g *Grid, lo, hi int, list bool) *pass {
	p := &pass{r: r, g: g, lo: lo, hi: hi}
	if list {
		p.slab = make([]Cell, hi-lo)
	}
	if !r.caches() || lo == hi {
		return p
	}
	p.cache, p.c0 = r.Cache, g.curveOf(lo)
	longest := 0
	for c := p.c0; c < len(g.Curves) && g.Curves[c].Start < hi; c++ {
		longest = max(longest, min(g.Curves[c].End, hi)-max(g.Curves[c].Start, lo))
	}
	p.toks, p.cells = make([]eval.Token, longest), make([]Cell, longest)
	n := hi - lo
	if list {
		n *= 2
	}
	flags := make([]bool, longest+n)
	p.found, p.landed = flags[:longest], flags[longest:longest+hi-lo]
	if list {
		p.warm = flags[longest+hi-lo:]
	}
	return p
}

// lookup is the cache pass: it serves every cached cell — into its row,
// Cached, or, over a shared grid, marking it warm — and hands it to hit,
// in grid order, and returns how many cells are cold. A false return from
// hit — the consumer is gone — ends the pass, and lookup reports ok
// false.
func (p *pass) lookup(ctx context.Context, hit func(i int, cell Cell) bool) (cold int, ok bool) {
	g := p.g
	if p.cache == nil {
		return p.hi - p.lo, true
	}
	for c := p.c0; c < len(g.Curves) && g.Curves[c].Start < p.hi; c++ {
		cv := &g.Curves[c]
		start := max(cv.Start, p.lo)
		n := min(cv.End, p.hi) - start
		for j := 0; j < n; j++ {
			p.toks[j] = g.Rows[start+j].Scenario.Token()
		}
		hits := p.cache.GetCurve(cv.Key, p.toks[:n], p.cells[:n], p.found[:n])
		p.r.hits.Add(int64(hits))
		if hits < n {
			if p.left == nil {
				p.left = make([]atomic.Int32, g.curveOf(p.hi-1)-p.c0+1)
			}
			p.left[c-p.c0].Store(int32(n - hits))
			cold += n - hits
		}
		for j := 0; j < n && hits > 0; j++ {
			if !p.found[j] {
				continue
			}
			i := start + j
			if p.warm != nil {
				p.warm[i-p.lo] = true
			} else {
				g.Rows[i].Cell, g.Rows[i].Cached = p.cells[j], true
			}
			p.r.served(ctx, cellKey{&g.Rows[i].Scenario, cv.Key})
			if !hit(i, p.cells[j]) {
				return 0, false
			}
		}
	}
	return cold, true
}

// cell returns landed cell i.
func (p *pass) cell(i int) *Cell {
	if p.slab != nil {
		return &p.slab[i-p.lo]
	}
	return &p.g.Rows[i].Cell
}

// land takes the fresh cells [lo, hi) of one curve in: with the last cold
// cells of their curve, into the cache with the rest of the curve. Safe
// for concurrent calls on distinct cells.
func (p *pass) land(lo, hi int) {
	p.r.fresh.Add(int64(hi - lo))
	if p.cache == nil {
		return
	}
	c := p.g.curveOf(lo)
	for i := lo; i < hi; i++ {
		p.landed[i-p.lo] = true
	}
	if p.left[c-p.c0].Add(-int32(hi-lo)) == 0 {
		p.mu.Lock()
		p.put(c)
		p.mu.Unlock()
	}
}

// flush puts the landed cells of every curve the pass left partial. It
// runs once every landing has returned.
func (p *pass) flush() {
	for k := range p.left {
		if p.left[k].Load() > 0 {
			p.put(p.c0 + k)
		}
	}
}

// put stores the landed cells of curve c in one PutCurve. The caller
// holds mu, or is the only goroutine left.
func (p *pass) put(c int) {
	cv := &p.g.Curves[c]
	n := 0
	for i := max(cv.Start, p.lo); i < min(cv.End, p.hi); i++ {
		if p.landed[i-p.lo] {
			p.toks[n], p.cells[n] = p.g.Rows[i].Scenario.Token(), *p.cell(i)
			n++
		}
	}
	if n > 0 {
		p.cache.PutCurve(cv.Key, p.toks[:n], p.cells[:n])
	}
}

// landing is a run of landed rows, [lo, hi).
type landing struct{ lo, hi int32 }

// sweep is the one grid path under Run and Stream: expand, root span,
// cache pass, schedule the cold cells, write back, account. Every
// cell is answered in its own row of the grid, and the grid's rows are
// Run's result. A caller that takes the rows one by one — emit (Stream's)
// or Progress — gets them on this goroutine in completion order, warm
// cells first; emit's false return — the consumer is gone — abandons the
// sweep. The scheduler's landings reach this goroutine as spans of rows
// on a channel, opened only for such a caller. The returned error is the
// sweep's failure, or ctx's own error when ctx ended first: a timeout is
// not any one scenario's fault.
func (r *Runner) sweep(ctx context.Context, spec Spec, res *Result, emit func(Row) bool) (err error) {
	g, err := ExpandGrid(spec)
	if err != nil {
		return err
	}
	rows := g.Rows
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.run", specTraceKey(spec))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	span.SetAttr(obs.Int("cells", len(rows)))
	if res != nil {
		if res.Curves, err = r.resolveCurves(ctx, g); err != nil {
			return err
		}
		res.Rows, res.curves = rows, g.Curves
	}
	done := 0
	finish := func(i int) bool {
		done++
		row := &rows[i]
		if r.Progress != nil {
			r.Progress(Event{Done: done, Total: len(rows), Scenario: row.Scenario, Cached: row.Cached})
		}
		return emit == nil || emit(*row)
	}

	// Cache pass: warm cells complete here and now, the cold ones are the
	// scheduler's work.
	p := r.newPass(g, 0, len(rows), false)
	cold, ok := p.lookup(ctx, func(i int, _ Cell) bool { return finish(i) })
	if !ok {
		return ctx.Err()
	}
	hits := done

	if cold > 0 {
		sched := r.scheduler()
		var schedErr error
		if emit == nil && r.Progress == nil {
			// Nobody takes rows one by one: they land in place and the
			// landings need no hand-over.
			schedErr = sched.Schedule(ctx, g, cold, p.land)
			done += cold
		} else {
			runCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			// Sized to the cold rows, so a landing never blocks on a slow
			// consumer.
			out := make(chan landing, cold)
			go func() {
				defer close(out)
				schedErr = sched.Schedule(runCtx, g, cold, func(lo, hi int) {
					p.land(lo, hi)
					out <- landing{int32(lo), int32(hi)}
				})
			}()
			for s := range out {
				for i := int(s.lo); i < int(s.hi) && runCtx.Err() == nil; i++ {
					if !finish(i) {
						cancel() // consumer gone; the scheduler unwinds and closes out
					}
				}
			}
		}
		p.flush()
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
// expansion order: the grid's own rows, each cell answered in place.
// Results are independent of the worker count and of how cells were
// claimed: each scenario derives its seed from the spec seed and its own
// curve position, never from scheduling, and a curve answered in one
// call answers each cell as Evaluate would alone. Cancelling ctx aborts the sweep —
// including simulations already in flight — and returns ctx's error;
// cells completed before the cancellation or a failure are still in the
// cache: a curve is written back when its last cold cell lands, and the
// landed cells of a curve left unfinished before Run returns.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	res := &Result{Spec: spec}
	if err := r.sweep(ctx, spec, res, nil); err != nil {
		return nil, err
	}
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

// Curves implements Scheduler: each curve is described on the pool —
// a first look at a curve may be an Eq. 26 search — through the first
// backend that can (the analytic model, in the built-in stack); a list
// with no such backend leaves the model fields NaN. Descriptions land at
// the curve's index, so the order never depends on scheduling. Once ctx
// has ended no further curve is described and its error is returned as
// is.
func (p localPool) Curves(ctx context.Context, g *Grid) ([]eval.CurveDesc, error) {
	descs := make([]eval.CurveDesc, len(g.Curves))
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
	errs := make([]error, len(g.Curves))
	each(ctx, p.r.workers(g.Spec, len(g.Rows)), len(g.Curves), func(i int) {
		descs[i], errs[i] = desc.Curve(ctx, g.Rows[g.Curves[i].Start].Scenario)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", g.Rows[g.Curves[i].Start].Scenario.CurveKey(), err)
		}
	}
	return descs, nil
}

// Curves describes every curve of g — one eval.CurveDesc per curve, in
// grid order — through the runner's Scheduler. It is what a shard answers
// /v1/curve with.
func (r *Runner) Curves(ctx context.Context, g *Grid) ([]eval.CurveDesc, error) {
	return r.scheduler().Curves(ctx, g)
}

// resolveCurves builds the grid's per-curve metadata under a
// sweep.curves span that makes the set-up share of a sweep attributable.
func (r *Runner) resolveCurves(ctx context.Context, g *Grid) ([]CurveInfo, error) {
	ctx, span := obs.StartSpanKeyed(ctx, "sweep.curves", "")
	before := analytic.SaturationSearches()
	descs, err := r.scheduler().Curves(ctx, g)
	var infos []CurveInfo
	if err == nil {
		infos = make([]CurveInfo, len(g.Curves))
		for i, c := range g.Curves {
			sc, cd := &g.Rows[c.Start].Scenario, &descs[i]
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
