package eval

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/analytic"
	"repro/internal/core"
)

// AnalyticBackend evaluates scenarios with the paper's analytical model.
// It takes every curve's model, one per topology instance, message
// length and variant, as a view (analytic.Model.View) of the instance's
// network — the channel-class graph, its rates, D̄ and closed-form
// tables, which depend on neither the message length nor the variant —
// and the process builds that network once, for every backend (see
// analyticNets). The Eq. 26 saturation searches anchoring fractional
// load points are memoized per backend, instance and message length, on
// the paper view: however many goroutines touch a fresh curve at the
// same moment, every anchor is searched exactly once, and lookups take
// only the shared side of the memo's lock. The zero value is not usable;
// construct with NewAnalyticBackend. Safe for concurrent use.
type AnalyticBackend struct {
	mu     sync.RWMutex
	curves map[modelKey]*curveEntry
}

type modelKey struct {
	topo    Topology
	flits   int
	variant core.Options
}

// curveEntry is one memoized view. base is the entry of the paper
// variant of the same instance and message length (the entry itself for
// the paper variant), whose saturation load anchors fractional loads.
type curveEntry struct {
	model analytic.Model
	base  *curveEntry

	satOnce sync.Once
	sat     float64
	satErr  error
}

// NewAnalyticBackend returns an empty backend.
func NewAnalyticBackend() *AnalyticBackend {
	return &AnalyticBackend{curves: make(map[modelKey]*curveEntry)}
}

// Name implements Evaluator.
func (b *AnalyticBackend) Name() string { return "analytic" }

// entry returns the memoized model entry for the curve. A new curve
// takes its network from the process (waiting, outside the memo's lock,
// for its one build) and its view under the write lock.
func (b *AnalyticBackend) entry(topo Topology, flits int, opt core.Options) (*curveEntry, error) {
	key := modelKey{topo, flits, opt}
	b.mu.RLock()
	e := b.curves[key]
	b.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	net, err := analyticNets.get(topo)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.entryLocked(net, key)
}

// entryLocked takes the view of net for key (and its base) under the
// write lock. Failures are not memoized.
func (b *AnalyticBackend) entryLocked(net *analytic.Model, key modelKey) (*curveEntry, error) {
	if e := b.curves[key]; e != nil {
		return e, nil
	}
	view, err := net.View(float64(key.flits), key.variant)
	if err != nil {
		return nil, err
	}
	e := &curveEntry{model: view}
	e.base = e
	if key.variant != (core.Options{}) {
		if e.base, err = b.entryLocked(net, modelKey{key.topo, key.flits, core.Options{}}); err != nil {
			return nil, err
		}
	}
	b.curves[key] = e
	return e, nil
}

// saturation runs the entry's Eq. 26 search on first use — exactly once,
// concurrent first callers wait for it — and returns the memoized load
// (NaN with the search's error when it failed).
func (e *curveEntry) saturation() (float64, error) {
	e.satOnce.Do(func() {
		if e.sat, e.satErr = e.model.SaturationLoad(); e.satErr != nil {
			e.sat = math.NaN()
		}
	})
	return e.sat, e.satErr
}

// SaturationLoad returns the memoized Eq. 26 saturation load of the
// *base* (paper) model for the given instance and message length. It is
// the anchor for fractional load points: variants are probed at the base
// model's operating points so their curves stay comparable.
func (b *AnalyticBackend) SaturationLoad(topo Topology, flits int) (float64, error) {
	e, err := b.entry(topo, flits, core.Options{})
	if err != nil {
		return math.NaN(), err
	}
	return e.saturation()
}

// PaperModel returns the memoized base (paper) view for the given
// instance and message length — the one SaturationLoad searches, and the
// one the bounds calculus composes over, so the calculus builds no
// network of its own.
func (b *AnalyticBackend) PaperModel(topo Topology, flits int) (*analytic.Model, error) {
	e, err := b.entry(topo, flits, core.Options{})
	if err != nil {
		return nil, err
	}
	return &e.model, nil
}

// resolveLoad maps the scenario's load point to absolute
// flits/cycle/processor on its curve's entry.
func (e *curveEntry) resolveLoad(sc *Scenario) (float64, error) {
	if !sc.Load.Frac {
		return sc.Load.Value, nil
	}
	sat, err := e.base.saturation()
	if err != nil {
		return math.NaN(), fmt.Errorf("saturation load (needed for fractional load points): %w", err)
	}
	return sat * sc.Load.Value, nil
}

// ResolveLoad implements LoadResolver: it maps the scenario's load point
// to absolute flits/cycle/processor, anchoring fractions at the base
// model's saturation load.
func (b *AnalyticBackend) ResolveLoad(sc Scenario) (float64, error) {
	if !sc.Load.Frac {
		return sc.Load.Value, nil
	}
	e, err := b.entry(sc.Topology, sc.MsgFlits, core.Options{})
	if err != nil {
		return math.NaN(), fmt.Errorf("saturation load (needed for fractional load points): %w", err)
	}
	return e.resolveLoad(&sc)
}

// Curve describes the scenario's curve: model name, average distance,
// and the saturation anchor (NaN when the Eq. 26 search failed — the
// failure only becomes an error once a fractional load needs it). The
// context is unused here (the model is local and memoized) but part of
// the describer contract, which remote implementations need.
func (b *AnalyticBackend) Curve(ctx context.Context, sc Scenario) (CurveDesc, error) {
	e, err := b.entry(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return CurveDesc{}, err
	}
	sat, _ := e.base.saturation()
	return CurveDesc{Model: e.model.Name(), AvgDist: e.model.AvgDist(), SaturationLoad: sat}, nil
}

// Evaluate implements Evaluator: the model's latency prediction at the
// scenario's load, with saturation reported as +Inf rather than failure.
func (b *AnalyticBackend) Evaluate(ctx context.Context, sc Scenario) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, err
	}
	e, err := b.entry(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return Point{}, err
	}
	pr := e.model.Predictor()
	defer pr.Done()
	return e.point(&pr, &sc)
}

// EvaluateCurve implements CurveEvaluator: the curve's entry is looked
// up once and every load is predicted on one workspace.
func (b *AnalyticBackend) EvaluateCurve(ctx context.Context, cells Cells) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sc, _ := cells.Cell(0)
	e, err := b.entry(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return 0, err
	}
	pr := e.model.Predictor()
	defer pr.Done()
	for j, n := 0, cells.Len(); j < n; j++ {
		sc, pt := cells.Cell(j)
		q, err := e.point(&pr, sc)
		if err != nil {
			return j, err
		}
		*pt = pt.Merge(q)
	}
	return cells.Len(), nil
}

// point answers one cell of the entry's curve on pr.
func (e *curveEntry) point(pr *analytic.Predictor, sc *Scenario) (Point, error) {
	load, err := e.resolveLoad(sc)
	if err != nil {
		return Point{}, err
	}
	pt := NewPoint()
	pt.LoadFlits = load
	if !sc.Workload.ModelApplicable() {
		// The model assumes steady uniform Poisson injection (§2); for any
		// other workload it resolves the load anchor (so bursty curves are
		// probed at the same absolute loads as steady ones) but declines
		// to predict a latency.
		pt.ModelNA = true
		return pt, nil
	}
	lat, saturated, err := pr.Predict(load / float64(sc.MsgFlits))
	switch {
	case err != nil:
		return Point{}, err
	case saturated:
		pt.Model = math.Inf(1)
		pt.ModelSaturated = true
	default:
		pt.Model = lat.Total
	}
	return pt, nil
}
