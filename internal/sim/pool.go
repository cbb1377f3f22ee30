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

// parked holds the process's idle engines. A finished run parks its
// engines here, and the next Run — from any caller, backend or goroutine —
// resets one in place (engine.reset) instead of building one, so a warm
// run allocates little beyond its Result; results are bit-identical to a
// new engine's, whatever ran on the engine before.
//
// Only engines whose run returned a Result are parked. One that failed
// (cancelled context, ErrDeadlock, a workload the network rejects) or
// panicked is left to the garbage collector, so no later run starts from
// state an aborted cycle loop left behind. The process therefore retains
// at most as many engines as it has ever run at once, each as large as the
// largest network it has simulated; parked engines hold no reference to a
// caller's Config (engine.release). A mutex-guarded slice, not a
// sync.Pool: the garbage collector never drops an engine between two runs,
// and the race detector never drops a park.
var parked struct {
	mu   sync.Mutex
	free []*engine
}

// takeEngine returns an engine reset for cfg and set up for o's
// termination rule and Result: a parked one when there is one, otherwise
// a new one.
func takeEngine(cfg Config, o runOptions) (*engine, error) {
	parked.mu.Lock()
	var e *engine
	if n := len(parked.free); n > 0 {
		e, parked.free[n-1] = parked.free[n-1], nil
		parked.free = parked.free[:n-1]
	}
	parked.mu.Unlock()
	if e == nil {
		var err error
		if e, err = newEngine(cfg, o.term); err != nil {
			return nil, err
		}
	} else {
		if err := e.reset(cfg); err != nil {
			return nil, err
		}
		e.term, e.reused = o.term, true
	}
	e.noBusy = o.noBusy
	return e, nil
}

// park describes the finished engines on the caller's span, then parks
// them.
func park(ctx context.Context, engines []*engine) {
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
	parked.mu.Lock()
	parked.free = append(parked.free, engines...)
	parked.mu.Unlock()
}

// Run simulates the configured system and returns the measured result.
// Without options the run is bit-deterministic for a given Config (the
// pinned digests of TestResultDigestsPinned hold it); options add
// the statistical machinery on top: WithTermination for CI-width early
// stopping, WithReplicas for concurrent independent replicas merged by
// pooled batch means, and WithoutChannelBusy for a Result without its
// per-channel column.
//
// The cycle loop checks ctx periodically, so a cancelled context aborts
// mid-simulation (not just between runs) with an error wrapping ctx.Err().
// Cancellation does not perturb determinism — an uncancelled run is
// unaffected by its context.
//
// Run takes its engines from those the process has parked and builds only
// what it cannot take, so a caller that simulates repeatedly needs nothing
// but Run. It is safe for concurrent use.
//
// Run is a wrapper small enough to inline over a body that builds the
// Result as a value, so the Result lives where the caller keeps it: a
// caller that only reads it, and returns or stores neither it nor its
// address, holds it on its own stack.
func Run(ctx context.Context, cfg Config, opts ...Option) (*Result, error) {
	r, err := run(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// run is Run's body: it validates cfg and opts, takes the engines, runs
// them and parks them, and returns the Result by value.
func run(ctx context.Context, cfg Config, opts []Option) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	o, err := buildOptions(opts)
	if err != nil {
		return Result{}, err
	}
	if o.replicas > 1 {
		// Every replica builds its own engine, as large as the network.
		if n := cfg.Net.NumProcessors(); o.replicas > topology.MaxProcessors/max(n, 1) {
			return Result{}, fmt.Errorf("sim: %d replicas of %d processors are too large to simulate: the limit is %d processors", o.replicas, n, topology.MaxProcessors)
		}
		if cfg.Trace != nil {
			return Result{}, errors.New("sim: trace replay is a single deterministic run; replicas > 1 is not meaningful")
		}
		if cfg.Recorder != nil {
			return Result{}, errors.New("sim: recording with replicas > 1 would interleave traces; run one replica")
		}
		if o.term.Enabled() {
			// Each replica stops on its own (deterministic) statistics, so ask
			// every replica for a CI √n looser than the request: pooling n
			// independent replicas tightens the half-width by about √n,
			// landing the merged CI near the requested target.
			o.term.RelHalfWidth *= math.Sqrt(float64(o.replicas))
		}
	}
	// One replica's engine list stays on the stack: a warm run allocates
	// at most its ChannelBusy.
	var one [1]*engine
	engines := one[:]
	if o.replicas > 1 {
		engines = make([]*engine, o.replicas)
	}
	for r := range engines {
		rcfg := cfg
		rcfg.Seed = ReplicaSeed(cfg.Seed, r)
		if engines[r], err = takeEngine(rcfg, o); err != nil {
			return Result{}, err
		}
	}
	var res Result
	if len(engines) == 1 {
		res, err = engines[0].run(ctx)
	} else {
		res, err = runReplicas(ctx, engines)
	}
	if err != nil {
		return Result{}, err
	}
	park(ctx, engines)
	return res, nil
}

// runReplicas runs one engine per replica concurrently, cancels the rest
// on the first failure, and merges the survivors in replica-index order so
// the merged Result does not depend on goroutine scheduling.
func runReplicas(ctx context.Context, engines []*engine) (Result, error) {
	results := make([]Result, len(engines))
	errs := make([]error, len(engines))
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for r, e := range engines {
		wg.Add(1)
		go func(r int, e *engine) {
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
			results[r], errs[r] = e.run(rctx)
		}(r, e)
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
			return Result{}, err
		}
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	mergeStart := time.Now()
	res := mergeReplicas(engines, results)
	simMergeMicros.Add(time.Since(mergeStart).Microseconds())
	return res, nil
}

// mergeReplicas pools the replica tallies into one Result: batch means
// and sample streams are merged exactly (stats.Stream/BatchMeans parallel
// reduction), counts are summed, and rates are re-derived from the pooled
// totals over the replicas' summed measured windows. Without a
// ChannelBusy to fill, it pools no busy counts.
func mergeReplicas(engines []*engine, results []Result) Result {
	first := engines[0]
	pooled := first.tally
	pooled.busyInMeas = nil
	if !first.noBusy {
		pooled.busyInMeas = slices.Clone(first.busyInMeas)
	}
	measured := first.measEnd - first.measStart

	res := results[0]
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
	pooled.fill(&res, measured, first.nProc, !first.noBusy)
	res.Replicas = len(engines)
	return res
}
