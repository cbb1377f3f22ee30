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

// Point is one evaluated scenario. Fields a backend does not produce
// stay NaN; Merge folds the points of several backends into one cell.
type Point struct {
	// LoadFlits is the resolved absolute load (flits/cycle/processor).
	LoadFlits float64
	// Model is the predicted latency; +Inf when the model saturates.
	Model float64
	// ModelSaturated marks the +Inf case for JSON-safe serialisation.
	ModelSaturated bool
	// ModelNA marks a scenario outside the model's assumptions (any
	// non-default workload): the analytic backend resolved the load but
	// deliberately left Model NaN rather than answering with a
	// steady-state number that does not apply.
	ModelNA bool
	// Sim is the measured latency (NaN when simulation was skipped),
	// SimCI the 95% batch-means half-width.
	Sim, SimCI float64
	// SimSaturated reports the simulator could not sustain the load.
	SimSaturated bool
	// SimPrecision is the achieved relative CI half-width of the latency
	// estimate (SimCI / Sim); NaN when simulation was skipped or the
	// estimate is degenerate. With Budget.Precision set it records how
	// tight the early-stopped run actually got.
	SimPrecision float64
	// BoundMax is the guaranteed worst-case latency from the
	// network-calculus bounds backend (package bounds); +Inf when the
	// scenario's utilization exceeds the stability region (no finite
	// bound exists), NaN when no bounds backend ran.
	BoundMax float64
	// BoundUnbounded marks the +Inf case for JSON-safe serialisation,
	// mirroring ModelSaturated.
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
