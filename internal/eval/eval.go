// Package eval defines the evaluation backend API: the paper's central
// claim is that an analytical model and a flit-level simulator answer the
// same question — the latency of a scenario (topology, message length,
// policy, load) — so both are exposed behind one interface.
//
// An Evaluator turns a Scenario into a Point. AnalyticBackend answers
// from the model of package analytic (the fat-tree's closed form for the
// paper variant; the channel graph for the torus, the hypercube and every
// ablation), SimBackend from the cycle-driven simulator of package sim;
// the bound calculus of package bounds is the third, and future backends
// (learned surrogates) plug in behind the same contract.
// The sweep engine (package sweep) composes a list of Evaluators over a
// declarative scenario grid and merges their Points into cells. A fleet
// of shards is no Evaluator: RemoteBackend is its transport, and it
// reaches the engine as a sweep.Scheduler (package dispatch).
//
// Backends are safe for concurrent use and honour context cancellation:
// SimBackend checks the context inside the simulator's cycle loop, so a
// cancelled sweep stops mid-simulation rather than at the next scenario
// boundary.
package eval

import (
	"context"
	"math"
)

// Evaluator is the common contract of every evaluation backend.
type Evaluator interface {
	// Name labels the backend in errors and reports, e.g. "analytic".
	Name() string
	// Evaluate answers the scenario's question — average latency at the
	// scenario's operating point — filling only the Point fields this
	// backend knows (NaN elsewhere, see Point.Merge). It must be safe
	// for concurrent calls and return promptly (ctx.Err wrapped) once
	// ctx is cancelled.
	Evaluate(ctx context.Context, sc Scenario) (Point, error)
}

// CurveEvaluator is an Evaluator that answers a run of cells of one
// curve in one call — the sweep engine's unit of work — so that what the
// cells share (a model lookup, a workspace, an opt-out) is paid once per
// run, not once per cell. The engine drives a backend without it one
// Evaluate per cell.
type CurveEvaluator interface {
	Evaluator
	// EvaluateCurve answers cells.Cell(j) for j = 0, 1, … in turn, each
	// exactly as Evaluate would, merging the answer into the cell's point
	// (Point.Merge). It returns how many cells it answered: all of them,
	// or those before the one whose error it returns. The run is never
	// empty.
	EvaluateCurve(ctx context.Context, cells Cells) (int, error)
}

// Cells is a run of cells of one curve: their scenarios share one curve
// key (Scenario.AppendCurveKey) and differ only in their load and grid
// position.
type Cells interface {
	Len() int
	// Cell returns cell j's scenario and the point answers merge into.
	Cell(j int) (*Scenario, *Point)
}

// EvaluateEach answers cells one be.Evaluate call at a time: the
// EvaluateCurve of a backend with nothing to share across a run.
func EvaluateEach(ctx context.Context, be Evaluator, cells Cells) (int, error) {
	for j, n := 0, cells.Len(); j < n; j++ {
		sc, pt := cells.Cell(j)
		q, err := be.Evaluate(ctx, *sc)
		if err != nil {
			return j, err
		}
		*pt = pt.Merge(q)
	}
	return cells.Len(), nil
}

// Point is one evaluated scenario. Fields a backend does not produce
// stay NaN; Merge folds the points of several backends into one cell.
// The flags follow the six values, which packs a point into 56 bytes;
// the wire and store forms fix their own field order (AppendPoint).
type Point struct {
	// LoadFlits is the resolved absolute load (flits/cycle/processor).
	LoadFlits float64
	// Model is the predicted latency; +Inf when the model saturates.
	Model float64
	// Sim is the measured latency (NaN when simulation was skipped),
	// SimCI the 95% batch-means half-width.
	Sim, SimCI float64
	// SimPrecision is the achieved relative CI half-width of the latency
	// estimate (SimCI / Sim); NaN when simulation was skipped or the
	// estimate is degenerate. With Budget.Precision set it records how
	// tight the early-stopped run actually got.
	SimPrecision float64
	// BoundMax is the latency bound of the network-calculus bounds
	// backend (package bounds): the worst case under a (σ, ρ) arrival
	// envelope, composed over the model's mean service times — not a
	// guarantee for Poisson traffic, which fits no finite envelope. +Inf
	// when the scenario's utilization exceeds the stability region (no
	// finite bound exists), NaN when no bounds backend ran.
	BoundMax float64
	// ModelSaturated marks the +Inf model case for JSON-safe
	// serialisation.
	ModelSaturated bool
	// ModelNA marks a scenario outside the model's assumptions (any
	// non-default workload): the analytic backend resolved the load but
	// deliberately left Model NaN rather than answering with a
	// steady-state number that does not apply.
	ModelNA bool
	// SimSaturated reports the simulator could not sustain the load.
	SimSaturated bool
	// BoundUnbounded marks the +Inf bound case for JSON-safe
	// serialisation, mirroring ModelSaturated.
	BoundUnbounded bool
	// BoundNA marks a scenario outside the bound calculus' assumptions
	// (non-fat-tree family, or a workload process with no (σ,ρ)
	// envelope), the way ModelNA works for the analytic model.
	BoundNA bool
}

// NewPoint returns the empty point: every field NaN, nothing measured.
func NewPoint() Point {
	nan := math.NaN()
	return Point{LoadFlits: nan, Model: nan, Sim: nan, SimCI: nan, SimPrecision: nan, BoundMax: nan}
}

// Same reports whether a and b are the same point: every field equal bit
// for bit, any NaN equal to any other. It is the identity a cache and a
// store use to tell a changed cell from a re-put of the one they hold.
func Same(a, b Point) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y }
	return eq(a.LoadFlits, b.LoadFlits) && eq(a.Model, b.Model) && eq(a.Sim, b.Sim) &&
		eq(a.SimCI, b.SimCI) && eq(a.SimPrecision, b.SimPrecision) && eq(a.BoundMax, b.BoundMax) &&
		a.ModelSaturated == b.ModelSaturated && a.ModelNA == b.ModelNA && a.SimSaturated == b.SimSaturated &&
		a.BoundUnbounded == b.BoundUnbounded && a.BoundNA == b.BoundNA
}

// Merge folds q into p: any field q actually produced (non-NaN, or a
// set saturation marker) overrides p's. Backends never contradict each
// other on LoadFlits — both resolve it from the same scenario.
func (p Point) Merge(q Point) Point {
	if !math.IsNaN(q.LoadFlits) {
		p.LoadFlits = q.LoadFlits
	}
	if !math.IsNaN(q.Model) || q.ModelSaturated {
		p.Model, p.ModelSaturated = q.Model, q.ModelSaturated
	}
	if q.ModelNA {
		p.ModelNA = true
	}
	if !math.IsNaN(q.Sim) || q.SimSaturated {
		p.Sim, p.SimCI, p.SimSaturated = q.Sim, q.SimCI, q.SimSaturated
		p.SimPrecision = q.SimPrecision
	}
	if !math.IsNaN(q.BoundMax) || q.BoundUnbounded {
		p.BoundMax, p.BoundUnbounded = q.BoundMax, q.BoundUnbounded
	}
	if q.BoundNA {
		p.BoundNA = true
	}
	return p
}

// CurveDesc summarises the model context of one curve: the quantities
// reports need beyond per-point latencies.
type CurveDesc struct {
	// Model is the model instance's name, e.g. "bft-1024/s=16".
	Model string
	// AvgDist is D̄ in channels.
	AvgDist float64
	// SaturationLoad is the Eq. 26 operating point in
	// flits/cycle/processor; NaN when the search failed.
	SaturationLoad float64
}

// LoadResolver maps a scenario to its absolute load. Fractional loads
// are anchored at the base model's saturation load, so a backend without
// a model of its own (the simulator) borrows the resolution from one
// that has (the analytic backend).
type LoadResolver interface {
	ResolveLoad(sc Scenario) (float64, error)
}
