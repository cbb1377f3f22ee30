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
// It takes every curve's model as a view (analytic.Model.View) of the
// instance's network — the channel-class graph, its rates, D̄ and
// closed-form tables, which depend on neither the message length nor the
// variant — which the process builds once, for every backend (see
// analyticNets). It keeps one entry per instance and message length: the
// paper view, its memoized Eq. 26 saturation load, which anchors every
// variant's fractional load points, and one block of every variant's
// view, built whole when a variant is first asked for. However many
// goroutines touch a fresh curve at the same moment, every anchor is
// searched once, and lookups take only the shared side of the memo's
// lock. The zero value is not usable; construct with NewAnalyticBackend.
// Safe for concurrent use.
type AnalyticBackend struct {
	mu     sync.RWMutex
	curves map[curveKey]*curveEntry
}

type curveKey struct {
	topo  Topology
	flits int
}

// curveEntry is the memo of one instance and message length.
type curveEntry struct {
	paper    analytic.Model
	variants *variantViews // nil until a variant is asked for

	satOnce sync.Once
	sat     float64
	satErr  error
}

// variantViews holds each variant's view at its variantSlot. The views
// share the paper view's name, so the block is their one allocation.
type variantViews [1 << 3]analytic.Model

// variantSlot numbers a variant by its core.Options toggles, one bit
// each; the paper model is slot 0.
func variantSlot(opt core.Options) (slot int) {
	for i, on := range [...]bool{opt.NoBlockingCorrection, opt.SingleServerGroups, opt.NoPairRateCorrection} {
		if on {
			slot |= 1 << i
		}
	}
	return slot
}

// NewAnalyticBackend returns an empty backend.
func NewAnalyticBackend() *AnalyticBackend {
	return &AnalyticBackend{curves: make(map[curveKey]*curveEntry)}
}

// Name implements Evaluator.
func (b *AnalyticBackend) Name() string { return "analytic" }

// model returns the entry's view for opt, or nil when there is none yet.
func (e *curveEntry) model(opt core.Options) *analytic.Model {
	switch {
	case e == nil:
		return nil
	case opt == core.Options{}:
		return &e.paper
	case e.variants == nil:
		return nil
	}
	return &e.variants[variantSlot(opt)]
}

// view returns the memo entry of the curve's instance and message length
// and the curve's model. A new entry takes its network from the process
// (waiting, outside the memo's lock, for its one build); the entry and
// its variants' block are made under the write lock. Failures are not
// memoized.
func (b *AnalyticBackend) view(topo Topology, flits int, opt core.Options) (*curveEntry, *analytic.Model, error) {
	key := curveKey{topo, flits}
	b.mu.RLock()
	e := b.curves[key]
	m := e.model(opt)
	b.mu.RUnlock()
	if m != nil {
		return e, m, nil
	}
	net, err := analyticNets.get(topo)
	if err != nil {
		return nil, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if e = b.curves[key]; e == nil {
		paper, err := net.View(float64(flits), core.Options{})
		if err != nil {
			return nil, nil, err
		}
		e = &curveEntry{paper: paper}
		b.curves[key] = e
	}
	if e.model(opt) == nil {
		vs := new(variantViews)
		for slot := range vs { // View at the paper view's own length cannot fail
			vs[slot], _ = e.paper.View(e.paper.MsgFlits(), core.Options{
				NoBlockingCorrection: slot&1 != 0, SingleServerGroups: slot&2 != 0, NoPairRateCorrection: slot&4 != 0})
		}
		e.variants = vs
	}
	return e, e.model(opt), nil
}

// saturation runs the entry's Eq. 26 search on first use — exactly once,
// concurrent first callers wait for it — and returns the memoized load
// (NaN with the search's error when it failed).
func (e *curveEntry) saturation() (float64, error) {
	e.satOnce.Do(func() {
		if e.sat, e.satErr = e.paper.SaturationLoad(); e.satErr != nil {
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
	e, _, err := b.view(topo, flits, core.Options{})
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
	_, m, err := b.view(topo, flits, core.Options{})
	return m, err
}

// resolveLoad maps the scenario's load point to absolute
// flits/cycle/processor on its curve's entry.
func (e *curveEntry) resolveLoad(sc *Scenario) (float64, error) {
	if !sc.Load.Frac {
		return sc.Load.Value, nil
	}
	sat, err := e.saturation()
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
	e, _, err := b.view(sc.Topology, sc.MsgFlits, core.Options{})
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
	e, m, err := b.view(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return CurveDesc{}, err
	}
	sat, _ := e.saturation()
	return CurveDesc{Model: m.Name(), AvgDist: m.AvgDist(), SaturationLoad: sat}, nil
}

// Evaluate implements Evaluator: the model's latency prediction at the
// scenario's load, with saturation reported as +Inf rather than failure.
func (b *AnalyticBackend) Evaluate(ctx context.Context, sc Scenario) (Point, error) {
	if err := ctx.Err(); err != nil {
		return Point{}, err
	}
	e, m, err := b.view(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return Point{}, err
	}
	pr := m.Predictor()
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
	e, m, err := b.view(sc.Topology, sc.MsgFlits, sc.Variant.Options())
	if err != nil {
		return 0, err
	}
	pr := m.Predictor()
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
