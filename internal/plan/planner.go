package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/calib"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/sweep"
)

// Engine is what the planner needs from the Evaluator spine: spec-level
// execution for the coarse prune grid and scenario-level evaluation for
// the cells the plan reports — each refined candidate's operating point
// and the sim certification. sweep.Runner satisfies it directly
// (in-process, over any backend list), and so does dispatch.Dispatcher —
// the distributed form over a sweepd fleet: grids dispatch as contiguous
// ranges, single cells rotate per-cell with retry, and both cache under
// Scenario.Key as the in-process form does. The load search's own probes
// never reach the Engine: the Planner answers them on its own model.
type Engine interface {
	// Run executes a full sweep spec (the coarse prune grid).
	Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error)
	// Evaluate answers one scenario — an operating point or a
	// certification. The bool reports a cache hit.
	Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, bool, error)
}

// Planner runs plan specs against an Engine. Construct with New; safe
// for concurrent use (per-run state lives on the stack).
type Planner struct {
	engine Engine
	// search answers the load search's probes in process: a cache-less
	// runner over the built-in model and bounds stack, whose models carry
	// over from one plan to the next. A probe is a few microseconds of
	// math, cheaper than a store line or a round trip to a shard. A local
	// engine on the built-in stack lends it that stack, so each
	// candidate's network and Eq. 26 search are built once.
	search *sweep.Runner
	calib  *calib.Map
}

// Option configures a Planner.
type Option func(*Planner)

// WithCalibration attaches the calibration map the trust gate consults
// when a spec sets Calibration. Without a map (or for specs without
// Calibration) every candidate certifies through the simulator as
// before.
func WithCalibration(m *calib.Map) Option { return func(p *Planner) { p.calib = m } }

// New builds a Planner over the given engine.
func New(engine Engine, opts ...Option) *Planner {
	p := &Planner{engine: engine}
	if r, ok := engine.(*sweep.Runner); ok && r.Backends == nil && r.Scheduler == nil {
		p.search = r.Uncached()
	} else {
		p.search = sweep.NewRunner()
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// NewLocal builds an in-process planner: a default sweep.Runner (the
// built-in model, simulator and bounds stack) over the given cache (nil
// for none). Its cache lines are the ones cmd/sweep and sweepd write.
func NewLocal(cache sweep.CacheStore, opts ...Option) *Planner {
	return New(sweep.NewRunner(sweep.WithCache(cache)), opts...)
}

// Run executes the plan and returns the assembled result.
func (p *Planner) Run(ctx context.Context, spec Spec) (*Result, error) {
	return p.run(ctx, spec, nil)
}

// Stream executes the plan and delivers progress updates on the
// returned channel: candidates as they are pruned, refined and
// certified, then the frontier records in rank order, then one done
// update carrying the whole Result. The channel closes when the plan
// finishes or fails — a failure arrives as the final update with Err
// set — while a cancelled context just closes the channel promptly
// (the consumer's own ctx is the signal), leaving no goroutine behind.
func (p *Planner) Stream(ctx context.Context, spec Spec) <-chan Update {
	out := make(chan Update)
	go func() {
		defer close(out)
		emit := func(u Update) bool {
			if ctx.Err() != nil {
				return false
			}
			select {
			case out <- u:
				return true
			case <-ctx.Done():
				return false
			}
		}
		res, err := p.run(ctx, spec, emit)
		switch {
		case err != nil:
			if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
				emit(Update{Err: err})
			}
		case res != nil:
			emit(Update{Phase: PhaseDone, Result: res})
		}
	}()
	return out
}

// errAbandoned marks a consumer that stopped listening; it is
// internal — run converts it to a silent stop.
var errAbandoned = errors.New("plan: consumer gone")

// run is the search: coarse prune grid, per-candidate bisection,
// Pareto extraction, sim certification. emit (nillable) observes every
// update and aborts the run by returning false.
func (p *Planner) run(ctx context.Context, spec Spec, emit func(Update) bool) (res *Result, err error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := spec.withDefaults()
	ctx, span := obs.StartSpanKeyed(ctx, "plan.run", planTraceKey(d))
	defer func() {
		if span == nil {
			return
		}
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		if res != nil {
			span.SetAttr(obs.Int("candidates", res.Stats.Candidates))
			span.SetAttr(obs.Int("pruned", res.Stats.Pruned))
			span.SetAttr(obs.Int("frontier", res.Stats.FrontierSize))
			span.SetAttr(obs.Int("certified", res.Stats.Certified))
		}
		span.End()
	}()
	notify := func(u Update) error {
		if emit != nil && !emit(u) {
			return errAbandoned
		}
		return nil
	}

	res = &Result{Spec: d}

	// Phase 1 — coarse analytic grid: the whole discrete space at the
	// prune fractions, executed through the engine (sharded across the
	// fleet under a dispatcher), pruning infeasible candidates and
	// bracketing the knee of the survivors.
	coarseCtx, coarseSpan := obs.StartSpanKeyed(ctx, "plan.coarse", "")
	grid, gridErr := p.engine.Run(coarseCtx, d.pruneSpec())
	if gridErr != nil {
		coarseSpan.End(obs.String("error", gridErr.Error()))
		return nil, fmt.Errorf("plan: coarse grid: %w", gridErr)
	}
	res.Stats.CoarseCells = len(grid.Rows)
	res.Stats.CoarseCacheHits = grid.CacheHits

	cands, err := p.seed(d, grid)
	if err != nil {
		coarseSpan.End(obs.String("error", err.Error()))
		return nil, err
	}
	res.Stats.Candidates = len(cands)
	for i := range cands {
		if cands[i].c.Pruned {
			res.Stats.Pruned++
			traceDecision(coarseCtx, cands[i].c, "pruned", cands[i].c.PruneReason)
			if err := notify(Update{Phase: PhasePrune, Candidate: snapshot(cands[i].c)}); err != nil {
				coarseSpan.End()
				return nil, abandonErr(ctx)
			}
		}
	}
	coarseSpan.End(
		obs.Int("cells", res.Stats.CoarseCells),
		obs.Int("cache_hits", res.Stats.CoarseCacheHits),
		obs.Int("candidates", res.Stats.Candidates))

	// Phase 2 — refinement: bisection on the load axis per surviving
	// candidate on the planner's own model, bounded-parallel (each
	// candidate's probes are sequential), then each refined candidate's
	// operating point through the engine.
	refineCtx, refineSpan := obs.StartSpanKeyed(ctx, "plan.refine", "")
	if err := p.refine(refineCtx, d, cands, res, notify); err != nil {
		refineSpan.End(obs.String("error", err.Error()))
		if errors.Is(err, errAbandoned) {
			return nil, abandonErr(ctx)
		}
		return nil, err
	}
	refineSpan.End(obs.Int("probes", res.Stats.Probes))

	// Phase 3 — Pareto frontier over (cost, latency, sustainable load).
	frontier := pareto(cands)
	rank(d.Objective, frontier)
	for _, e := range frontier {
		e.c.Frontier = true
	}
	res.Stats.Refined = res.Stats.Candidates - res.Stats.Pruned
	res.Stats.FrontierSize = len(frontier)

	// Phase 4 — certification: the simulator re-evaluates only the
	// frontier candidates at their operating points.
	if !d.SkipCertify {
		certifyCtx, certifySpan := obs.StartSpanKeyed(ctx, "plan.certify", "")
		if err := p.certify(certifyCtx, d, frontier, res, notify); err != nil {
			certifySpan.End(obs.String("error", err.Error()))
			if errors.Is(err, errAbandoned) {
				return nil, abandonErr(ctx)
			}
			return nil, err
		}
		certifySpan.End(
			obs.Int("sim_evals", res.Stats.SimEvals),
			obs.Int("certified", res.Stats.Certified),
			obs.Int("trusted", res.Stats.Trusted))
	}

	for _, e := range frontier {
		res.Frontier = append(res.Frontier, *e.c)
		if err := notify(Update{Phase: PhaseFrontier, Candidate: snapshot(e.c)}); err != nil {
			return nil, abandonErr(ctx)
		}
	}
	for i := range cands {
		res.Candidates = append(res.Candidates, *cands[i].c)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// abandonErr maps an abandoned stream to the context's error (the
// consumer cancelling is the normal way to get here).
func abandonErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

// snapshot copies a candidate for an update, so later phases do not
// mutate what the consumer already received.
func snapshot(c *Candidate) *Candidate {
	cp := *c
	return &cp
}

// candidate is the planner's working state for one design point.
type candidate struct {
	c      *Candidate
	policy sim.UpLinkPolicy
	// loBracket is the largest coarse load known feasible, hiBracket the
	// smallest known infeasible (NaN when every probe was feasible and
	// the knee must be grown towards).
	loBracket, hiBracket float64
}

// seed builds the candidate list from the coarse grid: cost, saturation
// anchor, feasibility bracket, prune verdicts.
func (p *Planner) seed(d Spec, grid *sweep.Result) ([]candidate, error) {
	runs := grid.ByCurve()
	if len(runs) != len(grid.Curves) {
		return nil, fmt.Errorf("plan: coarse grid has %d curves but %d runs of rows", len(grid.Curves), len(runs))
	}
	nan := math.NaN()
	var cands []candidate
	for i, ci := range grid.Curves {
		pol, err := sim.ParsePolicy(ci.Policy)
		if err != nil {
			return nil, err
		}
		c := &Candidate{
			Topology:       ci.Topology,
			MsgFlits:       ci.MsgFlits,
			Policy:         ci.Policy,
			SaturationLoad: ci.SaturationLoad,
			MaxLoad:        nan,
			OperatingLoad:  nan,
			Latency:        nan,
			Sim:            nan,
			SimCI:          nan,
			BoundMax:       nan,
			CalibMAPE:      nan,
		}
		cost, err := d.cost(c.Topology, c.MsgFlits)
		if err != nil {
			return nil, err
		}
		c.Cost = cost
		entry := candidate{c: c, policy: pol, loBracket: nan, hiBracket: nan}

		// Feasibility is monotone in load, so the curve's rows split into
		// a feasible prefix and an infeasible suffix.
		rows := runs[i]
		first := len(rows)
		for j, r := range rows {
			if !d.feasible(r.Cell) {
				first = j
				break
			}
		}
		switch {
		case d.Constraints.MaxCost > 0 && c.Cost > d.Constraints.MaxCost:
			prune(c, fmt.Sprintf("cost %.4g exceeds max_cost %.4g", c.Cost, d.Constraints.MaxCost))
		case d.Constraints.MaxWorstCaseLatency > 0 && rows[0].BoundNA:
			c.BoundNA = true
			prune(c, "no worst-case bound for this topology/workload (max_worstcase_latency requires one)")
		case first == 0:
			prune(c, fmt.Sprintf("infeasible at the lowest probe load (%.6g flits/cyc/PE)", rows[0].LoadFlits))
		default:
			entry.loBracket = rows[first-1].LoadFlits
			if first < len(rows) {
				entry.hiBracket = rows[first].LoadFlits
			}
		}
		cands = append(cands, entry)
	}
	return cands, nil
}

func prune(c *Candidate, reason string) {
	c.Pruned = true
	c.PruneReason = reason
}

// feasible reports whether a point meets the spec's constraints: a
// stable model latency within max_latency and, under a hard SLO, a
// finite worst-case bound within max_worstcase_latency. Both grow with
// load (the bound's burst, utilization and service all do), so the
// coarse rows split at one boundary and the refinement bisects it.
func (s Spec) feasible(pt eval.Point) bool {
	slo, wslo := s.Constraints.MaxLatency, s.Constraints.MaxWorstCaseLatency
	if pt.ModelSaturated || math.IsNaN(pt.Model) || (slo > 0 && pt.Model > slo) {
		return false
	}
	return wslo <= 0 || (!pt.BoundNA && !pt.BoundUnbounded && !math.IsNaN(pt.BoundMax) && pt.BoundMax <= wslo)
}

// planTraceKey names the plan's root span: the spec name when one is
// set, so repeated runs of a named plan trace identically.
func planTraceKey(d Spec) string {
	if d.Name != "" {
		return d.Name
	}
	return "anonymous"
}

// traceDecision emits one "plan.decision" span: the candidate, the
// verdict (pruned / refined / certified / not-certified) and the
// constraint that produced it. Keyed by candidate and verdict, so the
// decision record is byte-stable across runs.
func traceDecision(ctx context.Context, c *Candidate, verdict, constraint string) {
	_, sp := obs.StartSpanKeyed(ctx, "plan.decision", c.Key()+"/"+verdict)
	if sp == nil {
		return
	}
	attrs := []obs.Attr{
		obs.String("candidate", c.Key()),
		obs.String("verdict", verdict),
	}
	if constraint != "" {
		attrs = append(attrs, obs.String("constraint", constraint))
	}
	sp.End(attrs...)
}

// refine locates every surviving candidate's knee: the largest load
// satisfying the constraints, bisected to the spec's tolerance with
// internal/solve, probing the planner's own model off the fixed grid,
// then reported at its operating point through the Engine. Candidates
// refine in parallel (Search.Workers, default GOMAXPROCS); completion
// updates are emitted from this goroutine in completion order.
func (p *Planner) refine(ctx context.Context, d Spec, cands []candidate, res *Result, notify func(Update) error) error {
	var live []*candidate
	for i := range cands {
		if !cands[i].c.Pruned {
			live = append(live, &cands[i])
		}
	}
	if len(live) == 0 {
		return nil
	}
	workers := d.Search.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(live) {
		workers = len(live)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type doneMsg struct {
		e   *candidate
		err error
	}
	// jobs is pre-filled and buffered: every live candidate produces
	// exactly one done message even when the run is cancelled midway
	// (cancelled refinements return promptly), so the collection loop
	// below never blocks on a job that was abandoned unscheduled.
	jobs := make(chan *candidate, len(live))
	for _, e := range live {
		jobs <- e
	}
	close(jobs)
	done := make(chan doneMsg, len(live))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range jobs {
				done <- doneMsg{e, p.refineOne(runCtx, d, e)}
			}
		}()
	}

	var firstErr error
	for range live {
		msg := <-done
		if msg.err != nil {
			if firstErr == nil && ctx.Err() == nil && !errors.Is(msg.err, context.Canceled) {
				firstErr = fmt.Errorf("plan: refining %s: %w", msg.e.c.Key(), msg.err)
			}
			cancel() // fail fast; the rest drain as cancelled
			continue
		}
		if firstErr != nil || ctx.Err() != nil {
			continue
		}
		res.Stats.Probes += msg.e.c.Probes
		if msg.e.c.Pruned {
			res.Stats.Pruned++
			traceDecision(ctx, msg.e.c, "pruned", msg.e.c.PruneReason)
			if err := notify(Update{Phase: PhasePrune, Candidate: snapshot(msg.e.c)}); err != nil {
				firstErr = err
				cancel()
			}
			continue
		}
		traceDecision(ctx, msg.e.c, "refined", "")
		if err := notify(Update{Phase: PhaseRefine, Candidate: snapshot(msg.e.c)}); err != nil {
			firstErr = err
			cancel()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// refineOne runs the load search for one candidate on the planner's own
// model, then reports it at its operating point through the engine.
func (p *Planner) refineOne(ctx context.Context, d Spec, e *candidate) error {
	c := e.c
	var probeErr error
	probe := func(load float64) (eval.Point, bool) {
		if probeErr != nil || ctx.Err() != nil {
			return eval.Point{}, false
		}
		pt, err := p.searchAt(ctx, d, e, load)
		c.Probes++
		if err != nil {
			probeErr = err
			return eval.Point{}, false
		}
		return pt, true
	}
	feasibleAt := func(load float64) bool {
		pt, ok := probe(load)
		return ok && d.feasible(pt)
	}

	lo, hi := e.loBracket, e.hiBracket
	if math.IsNaN(hi) {
		// Every coarse probe was feasible (an SLO far above the curve, or
		// an unanchored candidate): grow the bracket until it breaks.
		stable, unstable, ok := solve.GrowToUnstable(feasibleAt, lo*2, 64)
		if probeErr != nil {
			return probeErr
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ok {
			prune(c, "no feasibility boundary found (constraints never bind)")
			return nil
		}
		if stable > lo {
			lo = stable
		}
		hi = unstable
	}

	// The utilization cap binds before the knee when it is the tighter
	// bound; past it no bisection is needed — the boundary is the cap.
	maxLoad := math.NaN()
	if util := d.Constraints.MaxUtilization; util > 0 && !math.IsNaN(c.SaturationLoad) {
		capLoad := util * c.SaturationLoad
		switch {
		case capLoad <= lo:
			maxLoad = capLoad
		case capLoad < hi:
			if feasibleAt(capLoad) {
				maxLoad = capLoad
			} else {
				hi = capLoad
			}
			if probeErr != nil {
				return probeErr
			}
		}
	}

	if math.IsNaN(maxLoad) {
		// Bisect the feasibility boundary: the objective is the
		// feasibility sign, which internal/solve roots like any other
		// monotone crossing (unstable probes count as +Inf).
		f := func(load float64) float64 {
			pt, ok := probe(load)
			if !ok {
				return math.Inf(1)
			}
			if d.feasible(pt) {
				return -1
			}
			return 1
		}
		knee, err := solve.BisectContext(ctx, f, lo, hi, d.Search.Tolerance*hi, 200)
		if probeErr != nil {
			return probeErr
		}
		if err != nil {
			return fmt.Errorf("locating the knee in [%v, %v]: %w", lo, hi, err)
		}
		maxLoad = knee
	}

	if need := d.Constraints.MinLoad; need > 0 && maxLoad < need {
		prune(c, fmt.Sprintf("max sustainable load %.6g below min_load %.6g", maxLoad, need))
		return nil
	}
	c.MaxLoad = maxLoad
	return p.operate(ctx, d, e)
}

// searchAt answers one probe of the load search — the candidate,
// model-only, at an absolute load — on the planner's own runner.
func (p *Planner) searchAt(ctx context.Context, d Spec, e *candidate, load float64) (eval.Point, error) {
	pt, _, err := p.search.Evaluate(ctx, e.at(d, load))
	return pt, err
}

// at is the candidate's model-only scenario at an absolute load: a
// search probe's, and an operating point's.
func (e *candidate) at(d Spec, load float64) eval.Scenario {
	return eval.Scenario{
		Topology:   e.c.Topology,
		MsgFlits:   e.c.MsgFlits,
		Policy:     e.policy,
		Load:       eval.Load{Value: load},
		WithBounds: d.wantBounds(),
	}
}

// operate reports a refined candidate at its operating point — the
// required load when the spec names one, else a headroom fraction of the
// knee — in a cell the engine answers, as it answers every cell the plan
// reports. Each attempt counts as a probe.
func (p *Planner) operate(ctx context.Context, d Spec, e *candidate) error {
	c := e.c
	evaluate := func(load float64) (eval.Point, error) {
		pt, _, err := p.engine.Evaluate(ctx, e.at(d, load))
		c.Probes++
		return pt, err
	}
	pinned := d.Constraints.MinLoad > 0
	op := d.Search.OperatingFrac * c.MaxLoad
	if pinned {
		op = d.Constraints.MinLoad
	}
	pt, err := evaluate(op)
	if err != nil {
		return err
	}
	if !d.feasible(pt) {
		if pinned {
			// min_load sits within the bisection tolerance of the true
			// boundary, on its wrong side: the candidate cannot actually
			// operate at the required load, and reporting a latency
			// measured anywhere else would break the "latency at exactly
			// min_load" contract — prune instead.
			prune(c, fmt.Sprintf("required min_load %.6g infeasible at the knee (within tolerance of the boundary)", op))
			c.MaxLoad = math.NaN()
			return nil
		}
		// The knee estimate overshot the boundary by less than the
		// tolerance; step the operating point just inside it.
		op = c.MaxLoad * (1 - 4*d.Search.Tolerance)
		if pt, err = evaluate(op); err != nil {
			return err
		}
		if !d.feasible(pt) {
			return fmt.Errorf("operating point %.6g infeasible below the located knee %.6g", op, c.MaxLoad)
		}
	}
	c.OperatingLoad = op
	c.Latency = pt.Model
	c.BoundMax = pt.BoundMax
	c.BoundNA = pt.BoundNA
	return nil
}

// pareto returns the non-dominated candidates over (cost asc, latency
// asc, max load desc). Ties on every axis survive together (two
// policies over one model differ only under the simulator).
func pareto(cands []candidate) []*candidate {
	var live []*candidate
	for i := range cands {
		if !cands[i].c.Pruned {
			live = append(live, &cands[i])
		}
	}
	var frontier []*candidate
	for _, a := range live {
		dominated := false
		for _, b := range live {
			if a != b && dominates(b.c, a.c) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, a)
		}
	}
	return frontier
}

// dominates reports b strictly better-or-equal on every axis and
// strictly better on at least one.
func dominates(b, a *Candidate) bool {
	if b.Cost > a.Cost || b.Latency > a.Latency || b.MaxLoad < a.MaxLoad {
		return false
	}
	return b.Cost < a.Cost || b.Latency < a.Latency || b.MaxLoad > a.MaxLoad
}

// rank orders the frontier by the spec's objective, deterministic under
// ties.
func rank(objective string, frontier []*candidate) {
	less := func(a, b *Candidate) bool {
		switch objective {
		case ObjectiveMaxLoad:
			if a.MaxLoad != b.MaxLoad {
				return a.MaxLoad > b.MaxLoad
			}
		case ObjectiveMinLatency:
			if a.Latency != b.Latency {
				return a.Latency < b.Latency
			}
		case ObjectiveMinCost:
			if a.Cost != b.Cost {
				return a.Cost < b.Cost
			}
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		return a.Key() < b.Key()
	}
	// Insertion sort: frontiers are small and the comparator is cheap.
	for i := 1; i < len(frontier); i++ {
		for j := i; j > 0 && less(frontier[j].c, frontier[j-1].c); j-- {
			frontier[j], frontier[j-1] = frontier[j-1], frontier[j]
		}
	}
}

// certify re-evaluates the frontier candidates with the simulator at
// their operating points — the expensive reference runs only where the
// analytic search says they matter. With a calibration gate
// (Spec.Calibration plus a map from WithCalibration), the gate runs
// first: candidates whose operating region the map has measured
// accurate enough skip their simulation entirely, and only escalated
// or uncalibrated regions spend sim budget.
func (p *Planner) certify(ctx context.Context, d Spec, frontier []*candidate, res *Result, notify func(Update) error) error {
	for _, e := range frontier {
		c := e.c
		if c.Topology.Family == eval.FamilyTorus {
			c.CertifyNote = "no simulator topology"
			traceDecision(ctx, c, "not-certified", c.CertifyNote)
			if err := notify(Update{Phase: PhaseCertify, Candidate: snapshot(c)}); err != nil {
				return err
			}
			continue
		}
		if d.Calibration != nil {
			region := calib.RegionFor(c.Topology, c.MsgFlits, c.Policy,
				d.Workload.Canonical(), c.OperatingLoad/c.SaturationLoad)
			verdict, mape, pairs := p.calib.Verdict(region, *d.Calibration)
			c.CalibVerdict, c.CalibMAPE, c.CalibPairs = verdict, mape, pairs
			traceDecision(ctx, c, verdict, region.String())
			switch verdict {
			case calib.VerdictTrusted:
				res.Stats.Trusted++
				c.CertifyNote = fmt.Sprintf("calibration-trusted (MAPE %.3g over %d pairs in %s); sim skipped",
					mape, pairs, region.Band)
				if err := notify(Update{Phase: PhaseCertify, Candidate: snapshot(c)}); err != nil {
					return err
				}
				continue
			case calib.VerdictEscalated:
				res.Stats.Escalated++
			default:
				res.Stats.Uncalibrated++
			}
		}
		sc := eval.Scenario{
			Topology:   c.Topology,
			MsgFlits:   c.MsgFlits,
			Policy:     e.policy,
			Load:       eval.Load{Value: c.OperatingLoad},
			WithSim:    true,
			Budget:     d.Budget,
			Workload:   d.Workload,
			WithBounds: d.wantBounds(),
		}
		pt, _, err := p.engine.Evaluate(ctx, sc)
		if err != nil {
			return fmt.Errorf("plan: certifying %s: %w", c.Key(), err)
		}
		res.Stats.SimEvals++
		c.Sim, c.SimCI, c.SimSaturated = pt.Sim, pt.SimCI, pt.SimSaturated
		if d.wantBounds() {
			// The certification scenario recomputes the bound under the
			// certification workload, so the candidate records the bound
			// the sim mean is checked against.
			c.BoundMax = pt.BoundMax
			c.BoundNA = pt.BoundNA
		}
		c.Certified = !math.IsNaN(c.Sim) && !c.SimSaturated
		if !d.Workload.IsDefault() {
			c.CertifyNote = "workload " + d.Workload.Label()
		}
		if c.Certified && d.wantBounds() && !math.IsNaN(pt.BoundMax) && c.Sim > pt.BoundMax {
			// A measured mean above the network-calculus bound means the
			// bound (or the model behind it) is wrong for this candidate;
			// a hard-SLO frontier must not carry it as certified.
			c.Certified = false
			c.CertifyNote = "sim mean exceeds the worst-case bound"
		}
		if c.Certified {
			res.Stats.Certified++
			traceDecision(ctx, c, "certified", c.CertifyNote)
		} else {
			constraint := "no finite sim latency"
			if c.SimSaturated {
				constraint = "sim saturated at the operating load"
			} else if c.CertifyNote == "sim mean exceeds the worst-case bound" {
				constraint = c.CertifyNote
			}
			traceDecision(ctx, c, "not-certified", constraint)
		}
		if err := notify(Update{Phase: PhaseCertify, Candidate: snapshot(c)}); err != nil {
			return err
		}
	}
	return nil
}
