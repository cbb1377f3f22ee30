package eval

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// SimBackend evaluates scenarios with the flit-level wormhole simulator.
// It simulates on the process's one topology per instance (see simNets);
// fractional load points are resolved through the anchor (normally the
// AnalyticBackend of the same sweep, so model and simulator probe
// identical absolute loads). Scenarios with WithSim unset are answered
// with an empty Point — the backend only measures where the grid asked
// for measurement. Every run is a sim.Run, on the engines the process
// has parked, so even a new backend simulates on a built network and
// warm engines once anything in the process has simulated. A Point
// takes four scalars of the run's Result, so the run builds no
// per-channel column (sim.WithoutChannelBusy) and the Result stays on
// Evaluate's stack: a warm fixed-window cell allocates nothing
// (TestSimEvaluateAllocs). Safe for concurrent use; the simulator checks
// ctx inside its cycle loop.
//
// The lock covers the trace memo only: a trace is parsed outside it,
// once, with concurrent first callers of the same path waiting for that
// one parse while every other cell goes on.
type SimBackend struct {
	mu     sync.Mutex
	traces map[string]*traceEntry
	anchor LoadResolver
}

type traceEntry struct {
	once  sync.Once
	trace *workload.Trace
	err   error
}

// NewSimBackend returns a backend resolving fractional loads through
// anchor. A nil anchor restricts the backend to absolute load points.
func NewSimBackend(anchor LoadResolver) *SimBackend {
	return &SimBackend{traces: make(map[string]*traceEntry), anchor: anchor}
}

// trace returns the memoized parsed trace for a path. Trace files are
// immutable by contract (the canonical workload key embeds the path), so
// a load failure is memoized too: a sweep with many cells over one bad
// path fails each cell cheaply instead of re-reading the file.
func (b *SimBackend) trace(path string) (*workload.Trace, error) {
	b.mu.Lock()
	e := b.traces[path]
	if e == nil {
		e = new(traceEntry)
		b.traces[path] = e
	}
	b.mu.Unlock()
	e.once.Do(func() {
		f, err := os.Open(path)
		if err != nil {
			e.err = fmt.Errorf("eval: opening trace: %w", err)
			return
		}
		defer f.Close()
		e.trace, e.err = workload.ReadTrace(f)
	})
	return e.trace, e.err
}

// Name implements Evaluator.
func (b *SimBackend) Name() string { return "sim" }

// ResolveLoad implements LoadResolver, delegating fractions to the
// anchor.
func (b *SimBackend) ResolveLoad(sc Scenario) (float64, error) {
	if !sc.Load.Frac {
		return sc.Load.Value, nil
	}
	if b.anchor == nil {
		return 0, fmt.Errorf("fractional load %v needs a load anchor (see NewSimBackend)", sc.Load.Value)
	}
	return b.anchor.ResolveLoad(sc)
}

// EvaluateCurve implements CurveEvaluator: a curve that did not opt in
// (WithSim unset) is answered at once, with nothing to merge; a simulated
// one is a run of Evaluate calls.
func (b *SimBackend) EvaluateCurve(ctx context.Context, cells Cells) (int, error) {
	if sc, _ := cells.Cell(0); !sc.WithSim {
		return cells.Len(), nil
	}
	return EvaluateEach(ctx, b, cells)
}

// Evaluate implements Evaluator: one deterministic simulation run at the
// scenario's derived seed. Budget.Precision and Budget.Replicas map to
// the simulator's early-stopping and replica options; the achieved
// relative precision comes back in Point.SimPrecision. A panic below
// this call — a network or workload the simulator's invariants reject —
// fails this cell only: it comes back as the cell's error, and the engine
// it happened on is never parked.
func (b *SimBackend) Evaluate(ctx context.Context, sc Scenario) (pt Point, err error) {
	defer func() {
		if v := recover(); v != nil {
			pt, err = Point{}, fmt.Errorf("eval: simulator panic on %s: %v", sc.Key(), v)
		}
	}()
	if err := ctx.Err(); err != nil {
		return Point{}, err
	}
	if !sc.WithSim {
		return NewPoint(), nil
	}
	net, err := simNets.get(sc.Topology)
	if err != nil {
		return Point{}, err
	}
	load, err := b.ResolveLoad(sc)
	if err != nil {
		return Point{}, err
	}
	cfg := sim.Config{
		Net:           net,
		MsgFlits:      sc.MsgFlits,
		Pattern:       traffic.Uniform{},
		Seed:          sc.Seed(),
		WarmupCycles:  sc.Budget.Warmup,
		MeasureCycles: sc.Budget.Measure,
		DrainLimit:    sc.Budget.DrainLimit,
		Policy:        sc.Policy,
	}.FlitLoad(load)
	if sc.Workload != nil && !sc.Workload.IsDefault() {
		if sc.Workload.Trace != "" {
			tr, err := b.trace(sc.Workload.Trace)
			if err != nil {
				return Point{}, err
			}
			cfg.Trace = tr
		} else {
			cfg.Workload = sc.Workload
		}
	}
	opts := []sim.Option{sim.WithoutChannelBusy()}
	if sc.Budget.Precision > 0 {
		opts = append(opts, sim.WithTermination(sim.Termination{RelHalfWidth: sc.Budget.Precision}))
	}
	if sc.Budget.Replicas > 1 {
		opts = append(opts, sim.WithReplicas(sc.Budget.Replicas))
	}
	simCtx, span := obs.StartSpanFor(ctx, "sim.run", sc)
	res, err := sim.Run(simCtx, cfg, opts...)
	if err != nil {
		span.End(obs.String("error", err.Error()))
		return Point{}, err
	}
	span.End(
		obs.Int("cycles", res.Cycles),
		obs.Int("replicas", res.Replicas),
		obs.Bool("early_stopped", res.EarlyStopped),
		obs.Bool("saturated", res.Saturated))
	pt = NewPoint()
	pt.LoadFlits = load
	pt.Sim = res.LatencyMean
	pt.SimCI = res.LatencyCI95
	pt.SimSaturated = res.Saturated
	pt.SimPrecision = res.Precision
	return pt, nil
}
