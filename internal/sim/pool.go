package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/topology"
)

// Pool recycles engines between runs: a finished engine is parked and the
// next Run resets it in place (engine.reset) instead of building a new
// one, so a warm run allocates little beyond its Result. The zero value is
// ready and safe for concurrent use. Results are bit-identical to Run's,
// whatever ran on the engine before — another network, message length,
// policy or workload.
//
// Only engines whose run returned a Result are parked. One that failed
// (cancelled context, ErrDeadlock, a workload the network rejects) or
// panicked is left to the garbage collector, so no later run starts from
// state an aborted cycle loop left behind. A pool therefore retains at
// most as many engines as it has ever run concurrently, each as large as
// the largest network it has simulated; parked engines hold no reference
// to a caller's Config (engine.release).
type Pool struct {
	mu   sync.Mutex
	free []*engine
}

// engine returns an engine reset for cfg: a parked one when there is one.
func (p *Pool) engine(cfg Config, term Termination) (*engine, error) {
	p.mu.Lock()
	var e *engine
	if n := len(p.free); n > 0 {
		e, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	reused := e != nil
	if !reused {
		e = new(engine)
	}
	if err := e.reset(cfg); err != nil {
		return nil, err
	}
	e.term, e.reused = term, reused
	return e, nil
}

// park describes the finished engines on the caller's span, then takes
// them back.
func (p *Pool) park(ctx context.Context, engines []*engine) {
	if obs.Enabled(ctx) {
		reused, highWater := true, 0
		for _, e := range engines {
			reused = reused && e.reused
			highWater = max(highWater, e.soa.len())
		}
		obs.Annotate(ctx, obs.Bool("engine_reused", reused), obs.Int("worms_high_water", highWater))
	}
	for _, e := range engines {
		e.release()
	}
	p.mu.Lock()
	p.free = append(p.free, engines...)
	p.mu.Unlock()
}

// Run simulates the configured system and returns the measured result.
// Without options the run is bit-deterministic for a given Config (the
// pinned digests of TestResultDigestsPinned hold it); options add
// the statistical machinery on top: WithTermination for CI-width early
// stopping, WithReplicas for concurrent independent replicas merged by
// pooled batch means.
//
// The cycle loop checks ctx periodically, so a cancelled context aborts
// mid-simulation (not just between runs) with an error wrapping ctx.Err().
// Cancellation does not perturb determinism — an uncancelled run is
// unaffected by its context.
//
// Run builds its engines and discards them; callers that simulate
// repeatedly keep a Pool.
func Run(ctx context.Context, cfg Config, opts ...Option) (*Result, error) {
	return new(Pool).Run(ctx, cfg, opts...)
}

// Run is the package-level Run on the pool's engines; every replica draws
// from the same pool.
func (p *Pool) Run(ctx context.Context, cfg Config, opts ...Option) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	term := o.term
	if o.replicas > 1 {
		// Every replica builds its own engine, as large as the network.
		if n := cfg.Net.NumProcessors(); o.replicas > topology.MaxProcessors/max(n, 1) {
			return nil, fmt.Errorf("sim: %d replicas of %d processors are too large to simulate: the limit is %d processors", o.replicas, n, topology.MaxProcessors)
		}
		if cfg.Trace != nil {
			return nil, errors.New("sim: trace replay is a single deterministic run; replicas > 1 is not meaningful")
		}
		if cfg.Recorder != nil {
			return nil, errors.New("sim: recording with replicas > 1 would interleave traces; run one replica")
		}
		if term.Enabled() {
			// Each replica stops on its own (deterministic) statistics, so ask
			// every replica for a CI √n looser than the request: pooling n
			// independent replicas tightens the half-width by about √n,
			// landing the merged CI near the requested target.
			term.RelHalfWidth *= math.Sqrt(float64(o.replicas))
		}
	}
	engines := make([]*engine, o.replicas)
	for r := range engines {
		rcfg := cfg
		rcfg.Seed = ReplicaSeed(cfg.Seed, r)
		if engines[r], err = p.engine(rcfg, term); err != nil {
			return nil, err
		}
	}
	var res *Result
	if len(engines) == 1 {
		res, err = engines[0].run(ctx)
	} else {
		res, err = runReplicas(ctx, engines)
	}
	if err != nil {
		return nil, err
	}
	p.park(ctx, engines)
	return res, nil
}

// runReplicas runs one engine per replica concurrently, cancels the rest
// on the first failure, and merges the survivors in replica-index order so
// the merged Result does not depend on goroutine scheduling.
func runReplicas(ctx context.Context, engines []*engine) (*Result, error) {
	results := make([]*Result, len(engines))
	errs := make([]error, len(engines))
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for r := range engines {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, sp := obs.StartSpanKeyed(rctx, "sim.replica", strconv.Itoa(r))
			defer func() {
				// A panic on this goroutine would take the process down
				// past any recover in the caller; report it as the
				// replica's error instead.
				if v := recover(); v != nil {
					errs[r] = fmt.Errorf("sim: replica %d panicked: %v", r, v)
				}
				sp.End(obs.Int("replica", r), obs.Bool("failed", errs[r] != nil))
				if errs[r] != nil {
					cancel()
				}
			}()
			results[r], errs[r] = engines[r].run(rctx)
		}(r)
	}
	wg.Wait()
	// Prefer a substantive failure (deadlock, parent cancellation) over
	// the secondary "context canceled" errors of replicas we aborted.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil || !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	mergeStart := time.Now()
	res := mergeReplicas(engines, results)
	simMergeMicros.Add(time.Since(mergeStart).Microseconds())
	return res, nil
}

// mergeReplicas pools the replica tallies into one Result: batch means
// and sample streams are merged exactly (stats.Stream/BatchMeans parallel
// reduction), counts are summed, and rates are re-derived from the pooled
// totals over the replicas' summed measured windows.
func mergeReplicas(engines []*engine, results []*Result) *Result {
	first := engines[0]
	pooled := first.tally
	pooled.busyInMeas = slices.Clone(first.busyInMeas)
	measured := first.measEnd - first.measStart

	res := *results[0]
	for r := 1; r < len(engines); r++ {
		e := engines[r]
		pooled.merge(&e.tally)
		measured += e.measEnd - e.measStart
		res.TrackedInjected += results[r].TrackedInjected
		res.TrackedCompleted += results[r].TrackedCompleted
		res.TotalCompleted += results[r].TotalCompleted
		res.Cycles += results[r].Cycles
		res.Saturated = res.Saturated || results[r].Saturated
		res.EarlyStopped = res.EarlyStopped || results[r].EarlyStopped
	}
	pooled.fill(&res, measured, first.nProc)
	res.Replicas = len(engines)
	return &res
}
