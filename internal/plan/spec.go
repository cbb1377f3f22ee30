// Package plan is the capacity planner: a model-guided design-space
// optimizer over the Evaluator spine. A declarative Spec names a search
// space (topology families and sizes, message lengths, up-link
// policies, plus the continuous load axis), an objective, and
// constraints (a latency SLO, a utilization cap, a required load, a
// cost bound); the planner answers design questions — "which butterfly
// fat-tree sustains this load under this latency bound, and what does
// it cost" — without sweeping a full grid.
//
// The search is model-guided: a coarse analytic grid (executed through
// the sweep engine, so it shards across a sweepd fleet and warms the
// shared result store) prunes infeasible candidates and brackets the
// feasibility boundary of the survivors; per-candidate bisection on the
// load axis (internal/solve, on the planner's own in-process model) then
// locates the saturation knee — the largest load that stays stable
// (core.IsUnstable) and inside the SLO — to a relative tolerance a fixed
// grid could never afford; the
// Pareto frontier over (cost, latency, sustainable load) is extracted;
// and finally only the frontier candidates are re-evaluated with the
// flit-level simulator to certify the analytic ranking. See
// docs/plan.md for the spec schema and search semantics.
package plan

import (
	"fmt"
	"math"

	"repro/internal/calib"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Objectives understood by Spec.Objective.
const (
	// ObjectiveMaxLoad ranks candidates by their maximum sustainable
	// load under the constraints (highest first).
	ObjectiveMaxLoad = "max-load"
	// ObjectiveMinLatency ranks candidates by model latency at their
	// operating point (lowest first).
	ObjectiveMinLatency = "min-latency"
	// ObjectiveMinCost ranks candidates by the cost model (cheapest
	// first); it only makes sense with constraints that rule cheap
	// candidates out.
	ObjectiveMinCost = "min-cost"
)

// Space is the discrete search space: every combination of topology
// instance, message length and up-link policy is one candidate. The
// load axis is continuous — the planner searches it, it is not
// enumerated here.
type Space struct {
	// Topologies lists the families and sizes to explore (the sweep
	// engine's TopologySpec: family, sizes, torus radix).
	Topologies []sweep.TopologySpec `json:"topologies"`
	// MsgFlits lists the message lengths.
	MsgFlits []int `json:"msg_flits"`
	// Policies lists up-link arbitration policies by name; empty means
	// pairqueue only. Policies only change the simulator, so candidates
	// differing only in policy share analytic metrics and differ in
	// certification.
	Policies []string `json:"policies,omitempty"`
}

// Constraints restrict the feasible operating region of every
// candidate. Stability (the model not saturating, core.IsUnstable) is
// always required; everything else is opt-in.
type Constraints struct {
	// MaxLatency is the latency SLO in cycles: the model latency at the
	// operating point must not exceed it. 0 means unconstrained.
	MaxLatency float64 `json:"max_latency,omitempty"`
	// MaxWorstCaseLatency is the hard SLO in cycles: the
	// network-calculus latency bound of package bounds at the operating
	// point must not exceed it. The bound is the worst case under a
	// (σ, ρ) envelope on the model's mean service times, not a guarantee
	// for Poisson traffic (see eval.Point.BoundMax). Candidates whose
	// workload or family admits no bound (BoundNA) are pruned — a hard
	// SLO cannot be certified without one. 0 means unconstrained.
	MaxWorstCaseLatency float64 `json:"max_worstcase_latency,omitempty"`
	// MinLoad is the load (flits/cycle/processor) every candidate must
	// sustain; candidates that cannot are pruned, and survivors report
	// their operating latency at exactly this load. 0 means none.
	MinLoad float64 `json:"min_load,omitempty"`
	// MaxUtilization caps the operating point at this fraction of the
	// candidate's model saturation load, leaving stability headroom;
	// 0 means uncapped (the knee itself is the bound).
	MaxUtilization float64 `json:"max_utilization,omitempty"`
	// MaxCost prunes candidates whose cost exceeds it. 0 means none.
	MaxCost float64 `json:"max_cost,omitempty"`
}

// CostSpec selects and scales the cost model.
type CostSpec struct {
	// Model names the cost model: "ports" (default, total directed
	// channels of the instance) or "processors".
	Model string `json:"model,omitempty"`
	// Weight scales the model's raw value (default 1); Fixed adds a
	// constant. Cost = Fixed + Weight * model(candidate).
	Weight float64 `json:"weight,omitempty"`
	Fixed  float64 `json:"fixed,omitempty"`
}

// Search tunes the model-guided search.
type Search struct {
	// PruneFracs are the coarse grid's load points as fractions of each
	// candidate's model saturation load. The default
	// [0.25 0.5 0.75 0.9 1.02] spans the curve and includes one point
	// past saturation, so the grid both prunes and brackets. The list
	// must be increasing.
	PruneFracs []float64 `json:"prune_fracs,omitempty"`
	// Tolerance is the relative tolerance of the load bisection
	// (default 1e-7): the knee is located to within Tolerance × load.
	Tolerance float64 `json:"tolerance,omitempty"`
	// OperatingFrac places the reported operating point at this
	// fraction of the refined maximum sustainable load (default 0.9)
	// when Constraints.MinLoad does not pin it.
	OperatingFrac float64 `json:"operating_frac,omitempty"`
	// Workers bounds concurrent candidate refinements (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Spec declares one capacity-planning question.
type Spec struct {
	// Name and Description label reports; Name defaults to "plan".
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Space is the discrete candidate space.
	Space Space `json:"space"`
	// Objective ranks the frontier; one of the Objective* constants.
	Objective string `json:"objective"`
	// Constraints bound the feasible operating region.
	Constraints Constraints `json:"constraints,omitempty"`
	// Cost selects the cost model (default: "ports", weight 1).
	Cost CostSpec `json:"cost,omitempty"`
	// Search tunes the model-guided search.
	Search Search `json:"search,omitempty"`
	// Workload applies a non-default workload (internal/workload) to the
	// certification simulations: the frontier is certified under, say,
	// bursty MMPP arrivals or a hotspot pattern instead of the paper's
	// steady uniform Poisson traffic. The analytic search itself always
	// runs on the steady model — the paper's model has no answer for
	// other workloads (they are model-not-applicable), so the steady
	// saturation surface serves as the search anchor and the simulator
	// reports how the workload degrades the frontier. nil keeps the
	// paper's workload end to end.
	Workload *workload.Spec `json:"workload,omitempty"`
	// SkipCertify disables the simulator pass over the frontier
	// (model-only planning; also implied per-candidate for families
	// without a simulator topology, such as the torus).
	SkipCertify bool `json:"skip_certify,omitempty"`
	// WithBounds reports the network-calculus worst-case bound on every
	// refined candidate even when no hard SLO constrains on it (a
	// max_worstcase_latency constraint implies it). cmd/plan's
	// `-backend model,bounds` sets it.
	WithBounds bool `json:"with_bounds,omitempty"`
	// Budget scales the certification simulations; the zero value uses
	// the sweep engine's Quick budget.
	Budget eval.Budget `json:"budget,omitempty"`
	// Calibration, when non-nil, turns on calibration trust-gated
	// certification: before simulating a frontier candidate, the planner
	// consults the calibration map (internal/calib) for the candidate's
	// region and skips the simulation where the map says the analytic
	// model is trustworthy — MAPE ≤ MaxMAPE over ≥ MinPairs pairs.
	// Regions with too much error escalate to simulation, regions with
	// thin coverage run it as uncalibrated; every verdict is recorded on
	// the candidate and its plan.decision span. Requires a calibration
	// map on the planner (WithCalibration); without one every region is
	// uncalibrated and the gate changes nothing. A zero field takes
	// calib.DefaultGate's value.
	Calibration *calib.Gate `json:"calibration,omitempty"`
}

// defaultPruneFracs spans each candidate's curve and includes one point
// past saturation so the coarse grid brackets the knee for free.
var defaultPruneFracs = []float64{0.25, 0.5, 0.75, 0.9, 1.02}

// ParseSpec decodes a JSON plan spec and validates it. Unknown fields
// are rejected with a field-naming error (sweep.DecodeStrict), so a
// misspelled axis fails loudly instead of silently relaxing the plan.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := sweep.DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("plan: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// withDefaults returns the spec with every optional knob resolved.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "plan"
	}
	if len(s.Search.PruneFracs) == 0 {
		s.Search.PruneFracs = append([]float64(nil), defaultPruneFracs...)
	}
	if s.Search.Tolerance <= 0 {
		s.Search.Tolerance = 1e-7
	}
	if s.Search.OperatingFrac <= 0 {
		s.Search.OperatingFrac = 0.9
	}
	if s.Cost.Model == "" {
		s.Cost.Model = "ports"
	}
	if s.Cost.Weight == 0 {
		s.Cost.Weight = 1
	}
	// Field-wise budget defaults: a spec that only pins, say, the seed
	// keeps it, with the Quick windows filled in around it.
	if s.Budget.Measure <= 0 {
		s.Budget.Measure = sweep.Quick.Measure
	}
	if s.Budget.Warmup <= 0 {
		s.Budget.Warmup = sweep.Quick.Warmup
	}
	if s.Budget.Seed == 0 {
		s.Budget.Seed = sweep.Quick.Seed
	}
	if s.Calibration != nil {
		cal := *s.Calibration
		if cal.MaxMAPE == 0 {
			cal.MaxMAPE = calib.DefaultGate.MaxMAPE
		}
		if cal.MinPairs == 0 {
			cal.MinPairs = calib.DefaultGate.MinPairs
		}
		s.Calibration = &cal
	}
	return s
}

// wantBounds reports whether the search needs the worst-case bound
// calculus: a hard SLO constrains on the bound, so the coarse grid,
// the bisection probes and the certification all carry it; WithBounds
// asks for the bound as reporting even without a constraint.
func (s Spec) wantBounds() bool { return s.WithBounds || s.Constraints.MaxWorstCaseLatency > 0 }

// pruneSpec compiles the coarse analytic grid: the full discrete space
// at the prune fractions, model-only (plus the bound calculus under a
// hard SLO). It is a plain sweep spec, so it runs through any sweep
// executor — the local Runner or the distributed Dispatcher — and its
// cells land in the shared result cache.
func (s Spec) pruneSpec() sweep.Spec {
	d := s.withDefaults()
	sp := sweep.Spec{
		Name:        d.Name + "-prune",
		Description: "coarse analytic prune grid of plan " + d.Name,
		Topologies:  d.Space.Topologies,
		MsgFlits:    d.Space.MsgFlits,
		Policies:    d.Space.Policies,
		Loads:       sweep.LoadSpec{Fracs: append([]float64(nil), d.Search.PruneFracs...)},
	}
	if d.wantBounds() {
		sp.Backends = []string{sweep.BackendModel, sweep.BackendBounds}
	}
	return sp
}

// Validate reports the first problem with the spec.
func (s *Spec) Validate() error {
	ps := s.pruneSpec()
	if err := ps.Validate(); err != nil {
		return fmt.Errorf("plan: space: %w", err)
	}
	switch s.Objective {
	case ObjectiveMaxLoad, ObjectiveMinLatency, ObjectiveMinCost:
	case "":
		return fmt.Errorf("plan: spec %q has no objective (want %q, %q or %q)",
			s.Name, ObjectiveMaxLoad, ObjectiveMinLatency, ObjectiveMinCost)
	default:
		return fmt.Errorf("plan: unknown objective %q (want %q, %q or %q)",
			s.Objective, ObjectiveMaxLoad, ObjectiveMinLatency, ObjectiveMinCost)
	}
	for _, p := range s.Space.Policies {
		if _, err := sim.ParsePolicy(p); err != nil {
			return err
		}
	}
	c := s.Constraints
	if c.MaxLatency < 0 || math.IsNaN(c.MaxLatency) {
		return fmt.Errorf("plan: bad max_latency %v", c.MaxLatency)
	}
	if c.MinLoad < 0 || math.IsNaN(c.MinLoad) {
		return fmt.Errorf("plan: bad min_load %v", c.MinLoad)
	}
	if c.MaxWorstCaseLatency < 0 || math.IsNaN(c.MaxWorstCaseLatency) {
		return fmt.Errorf("plan: bad max_worstcase_latency %v", c.MaxWorstCaseLatency)
	}
	if c.MaxUtilization < 0 || c.MaxUtilization > 1 || math.IsNaN(c.MaxUtilization) {
		return fmt.Errorf("plan: max_utilization must be in [0, 1], got %v", c.MaxUtilization)
	}
	if c.MaxCost < 0 || math.IsNaN(c.MaxCost) {
		return fmt.Errorf("plan: bad max_cost %v", c.MaxCost)
	}
	if s.Cost.Model != "" {
		if _, err := costModel(s.Cost.Model); err != nil {
			return err
		}
	}
	// Certification simulates the frontier and the default "ports" cost
	// reads its count off a built network, so either one sizes the
	// candidates as simulated networks (the torus has none to build).
	if !s.SkipCertify || s.Cost.Model == "" || s.Cost.Model == "ports" {
		for i, t := range s.Space.Topologies {
			if t.Family == eval.FamilyTorus {
				continue
			}
			for _, n := range t.Sizes {
				if err := (eval.Topology{Family: t.Family, Size: n}).CheckSimSize(s.Budget.Replicas); err != nil {
					return fmt.Errorf("plan: space: topologies[%d]: %w", i, err)
				}
			}
		}
	}
	if s.Cost.Weight < 0 {
		return fmt.Errorf("plan: cost weight must be >= 0, got %v", s.Cost.Weight)
	}
	sr := s.Search
	prev := 0.0
	for i, f := range sr.PruneFracs {
		if f <= 0 || math.IsNaN(f) {
			return fmt.Errorf("plan: bad prune frac %v", f)
		}
		if f <= prev {
			return fmt.Errorf("plan: prune_fracs must be increasing (index %d: %v after %v)", i, f, prev)
		}
		prev = f
	}
	if sr.Tolerance < 0 || sr.Tolerance >= 1 {
		return fmt.Errorf("plan: tolerance must be in (0, 1), got %v", sr.Tolerance)
	}
	if sr.OperatingFrac < 0 || sr.OperatingFrac > 1 {
		return fmt.Errorf("plan: operating_frac must be in (0, 1], got %v", sr.OperatingFrac)
	}
	if sr.Workers < 0 {
		return fmt.Errorf("plan: bad workers %d", sr.Workers)
	}
	if s.Budget.Warmup < 0 || s.Budget.Measure < 0 || s.Budget.DrainLimit < 0 {
		return fmt.Errorf("plan: bad certification budget %+v", s.Budget)
	}
	if p := s.Budget.Precision; p < 0 || math.IsNaN(p) || p >= 1 {
		return fmt.Errorf("plan: bad certification precision %v, must be in [0, 1)", p)
	}
	if s.Budget.Replicas < 0 {
		return fmt.Errorf("plan: bad certification replicas %d, must be >= 0", s.Budget.Replicas)
	}
	if cal := s.Calibration; cal != nil {
		if cal.MaxMAPE < 0 || math.IsNaN(cal.MaxMAPE) || cal.MaxMAPE >= 1 {
			return fmt.Errorf("plan: calibration max_mape must be in [0, 1), got %v", cal.MaxMAPE)
		}
		if cal.MinPairs < 0 {
			return fmt.Errorf("plan: bad calibration min_pairs %d", cal.MinPairs)
		}
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("plan: workload: %w", err)
	}
	if s.Workload != nil && s.Workload.Trace != "" {
		return fmt.Errorf("plan: workload traces pin one topology and load; certification across a search space cannot replay %q", s.Workload.Trace)
	}
	return nil
}
