// Package sweep is the declarative scenario-sweep engine: a JSON-decodable
// Spec describes a grid of scenarios — topology family and sizes, message
// lengths, up-link policies, load points, and a simulation budget — which
// Expand turns into a deterministic list of Scenario values and Runner
// executes on a bounded worker pool with an in-memory result cache.
//
// The engine generalises the per-figure experiment drivers of package exp:
// a figure or table of the paper is just one point grid (see Builtin for
// the paper's Figure 3 and Table-2-style validation grids), and any other
// grid — larger machines, longer messages, other topology families — is a
// spec away. Per-scenario seeds are derived from the spec seed and the
// scenario's position within its curve, never from scheduling order, so a
// sweep's numbers are independent of the worker count.
package sweep

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Quick is sized for CI and iterative work, Full for report-quality
// numbers. They mirror the budgets package exp has always used.
var (
	Quick = Budget{Warmup: 4000, Measure: 20000, Seed: 1}
	Full  = Budget{Warmup: 20000, Measure: 120000, Seed: 1}
)

// TopologySpec names one topology family and the sizes to sweep.
type TopologySpec struct {
	// Family is one of FamilyBFT, FamilyHypercube, FamilyTorus.
	Family string `json:"family"`
	// Sizes lists the instances: processor counts for the fat-tree,
	// dimension counts for the hypercube and torus.
	Sizes []int `json:"sizes"`
	// K is the torus radix (>= 2); ignored by the other families.
	K int `json:"k,omitempty"`
}

// LoadSpec describes the load points of every curve in the grid, in
// exactly one of three forms.
type LoadSpec struct {
	// Flits lists absolute loads in flits/cycle/processor.
	Flits []float64 `json:"flits,omitempty"`
	// Fracs lists loads as fractions of each curve's model saturation
	// load (the paper's validation-grid style).
	Fracs []float64 `json:"fracs,omitempty"`
	// Points/MaxFrac is sugar for Fracs: Points evenly spaced fractions
	// in (0, MaxFrac] (the paper's Figure 3 style).
	Points  int     `json:"points,omitempty"`
	MaxFrac float64 `json:"max_frac,omitempty"`
}

// Spec declares a scenario grid. The zero value is invalid; every field
// below without a default must be set.
type Spec struct {
	// Name and Description label reports; Name defaults to "sweep".
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Topologies × MsgFlits × Policies × Loads is the grid.
	Topologies []TopologySpec `json:"topologies"`
	MsgFlits   []int          `json:"msg_flits"`
	// Policies lists up-link arbitration policies by name ("pairqueue",
	// "randomfixed"); empty means pairqueue only.
	Policies []string `json:"policies,omitempty"`
	// Variants adds a model-ablation axis: each variant re-evaluates the
	// model side of every curve with some of the paper's ingredients
	// removed (fractional loads stay anchored at the base model's
	// saturation). Empty means the paper's model only. The simulator does
	// not depend on model options, so when variants are listed the
	// simulator runs only on cells of variants that set with_sim.
	Variants []Variant `json:"variants,omitempty"`
	// Workloads adds a workload axis: each workload re-runs every curve
	// under a different arrival process / rate mix / destination pattern
	// (see internal/workload). Empty means the paper's steady uniform
	// Poisson workload only. Non-default workloads are outside the
	// analytic model's assumptions, so their cells carry a
	// model-not-applicable marker instead of a steady-state prediction;
	// fractional loads stay anchored at the steady model's saturation so
	// workloads compare at equal mean load.
	Workloads []workload.Spec `json:"workloads,omitempty"`
	Loads     LoadSpec        `json:"loads"`
	// Backends selects the evaluation backends by name — "model",
	// "sim", "bounds" — so grids sweep the analytic model, the flit
	// simulator and the worst-case bound calculus side by side. Empty
	// means the classic selection: the model, plus the simulator when
	// WithSim is set. When listed, "model" is required (it anchors
	// fractional loads and curve resolution), "sim" is equivalent to
	// setting WithSim, and "bounds" asks the network-calculus backend
	// (package bounds) for a worst-case latency on every cell.
	Backends []string `json:"backends,omitempty"`
	// WithSim runs the flit-level simulator alongside the model.
	WithSim bool `json:"with_sim"`
	// Budget scales the simulation; ignored (and may be zero) when
	// WithSim is false.
	Budget Budget `json:"budget"`
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// Backend names understood by Spec.Backends.
const (
	// BackendModel is the analytic model (always present).
	BackendModel = "model"
	// BackendSim is the flit-level simulator.
	BackendSim = "sim"
	// BackendBounds is the worst-case network-calculus backend.
	BackendBounds = "bounds"
)

// hasBackend reports whether the spec's backend list names name.
func (s *Spec) hasBackend(name string) bool {
	for _, b := range s.Backends {
		if b == name {
			return true
		}
	}
	return false
}

// withSim reports whether the grid simulates: either spelling —
// with_sim or a "sim" entry in backends — opts in.
func (s *Spec) withSim() bool {
	return s.WithSim || s.hasBackend(BackendSim)
}

// wantBounds reports whether the grid asks the bounds backend for
// worst-case latencies.
func (s *Spec) wantBounds() bool {
	return s.hasBackend(BackendBounds)
}

// ParseSpec decodes a JSON spec and validates it. Unknown fields are
// rejected with a field-naming error — the offending name, the nearest
// known field, and the full known set — so a typo ("msgflits") fails
// loudly instead of silently dropping an axis.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("sweep: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// policies returns the policy list with the default applied.
func (s *Spec) policies() []string {
	if len(s.Policies) == 0 {
		return []string{sim.PairQueue.String()}
	}
	return s.Policies
}

// variants returns the variant list with the default (the paper's model)
// applied.
func (s *Spec) variants() []Variant {
	if len(s.Variants) == 0 {
		return []Variant{{}}
	}
	return s.Variants
}

// fracs returns the Points/MaxFrac sugar expanded to explicit fractions,
// or nil when the spec uses another load form.
func (l *LoadSpec) fracs() []float64 {
	if len(l.Fracs) > 0 {
		return l.Fracs
	}
	if l.Points > 0 {
		out := make([]float64, l.Points)
		for i := range out {
			out[i] = l.MaxFrac * float64(i+1) / float64(l.Points)
		}
		return out
	}
	return nil
}

// MaxCells caps a spec's expanded grid. Validate counts the cells from
// the axis lengths before anything is expanded, so a request's size is
// known — and refused — while it is still a few hundred bytes.
const MaxCells = 1 << 20

// cells is the size of the expanded grid before duplicate cells are
// dropped — the product of the axes, loads.points included — or
// MaxCells+1 when it is larger than that (the product itself may not fit
// an int).
func (s *Spec) cells() int {
	loads := max(len(s.Loads.Flits), len(s.Loads.Fracs), s.Loads.Points)
	n := 0
	for _, t := range s.Topologies {
		n += len(t.Sizes)
	}
	// An empty policy, variant or workload list stands for its one default.
	for _, axis := range []int{len(s.MsgFlits), max(len(s.Policies), 1), max(len(s.Variants), 1), max(len(s.Workloads), 1), loads} {
		if axis > 0 && n > MaxCells/axis {
			return MaxCells + 1
		}
		n *= axis
	}
	return n
}

// Validate reports the first problem with the spec.
func (s *Spec) Validate() error {
	if len(s.Backends) > 0 {
		seen := make(map[string]bool, len(s.Backends))
		for i, b := range s.Backends {
			switch b {
			case BackendModel, BackendSim, BackendBounds:
			default:
				return fmt.Errorf("sweep: backends[%d]: unknown backend %q (want %q, %q or %q)",
					i, b, BackendModel, BackendSim, BackendBounds)
			}
			if seen[b] {
				return fmt.Errorf("sweep: duplicate backend %q", b)
			}
			seen[b] = true
		}
		if !seen[BackendModel] {
			return fmt.Errorf("sweep: backends must include %q (it anchors fractional loads and curve resolution)", BackendModel)
		}
		if s.WithSim && !seen[BackendSim] {
			return fmt.Errorf("sweep: with_sim=true but backends omits %q; the spellings must agree", BackendSim)
		}
	}
	if len(s.Topologies) == 0 {
		return fmt.Errorf("sweep: spec %q has no topologies", s.Name)
	}
	for i, t := range s.Topologies {
		switch t.Family {
		case FamilyBFT, FamilyHypercube:
		case FamilyTorus:
			if t.K < 2 {
				return fmt.Errorf("sweep: topologies[%d]: torus needs k >= 2, got %d", i, t.K)
			}
			if s.withSim() {
				return fmt.Errorf("sweep: topologies[%d]: the torus has no simulator topology; set with_sim=false", i)
			}
		default:
			return fmt.Errorf("sweep: topologies[%d]: unknown family %q (want %q, %q or %q)",
				i, t.Family, FamilyBFT, FamilyHypercube, FamilyTorus)
		}
		if len(t.Sizes) == 0 {
			return fmt.Errorf("sweep: topologies[%d] (%s) has no sizes", i, t.Family)
		}
		for _, n := range t.Sizes {
			if n < 1 {
				return fmt.Errorf("sweep: topologies[%d] (%s): bad size %d", i, t.Family, n)
			}
			if s.withSim() {
				if err := (Topology{Family: t.Family, Size: n}).CheckSimSize(s.Budget.Replicas); err != nil {
					return fmt.Errorf("sweep: topologies[%d]: %w", i, err)
				}
			}
		}
	}
	if len(s.MsgFlits) == 0 {
		return fmt.Errorf("sweep: spec %q has no msg_flits", s.Name)
	}
	for _, f := range s.MsgFlits {
		if f < 1 {
			return fmt.Errorf("sweep: bad message length %d flits", f)
		}
	}
	for _, p := range s.Policies {
		if _, err := sim.ParsePolicy(p); err != nil {
			return err
		}
	}
	names := make(map[string]bool, len(s.Variants))
	// Cache keys hash a variant's options, not its name, so two variants
	// with identical options would silently collapse at expansion;
	// reject them instead.
	type variantKey struct {
		opts    Variant
		withSim bool
	}
	options := make(map[variantKey]string, len(s.Variants))
	for i, v := range s.Variants {
		if v.Name == "" {
			return fmt.Errorf("sweep: variants[%d] has no name", i)
		}
		if names[v.Name] {
			return fmt.Errorf("sweep: duplicate variant name %q", v.Name)
		}
		names[v.Name] = true
		if v.WithSim && !s.withSim() {
			return fmt.Errorf("sweep: variant %q sets with_sim but the spec does not", v.Name)
		}
		key := variantKey{opts: Variant{
			NoBlockingCorrection: v.NoBlockingCorrection,
			SingleServerGroups:   v.SingleServerGroups,
			NoPairRateCorrection: v.NoPairRateCorrection,
		}, withSim: v.WithSim}
		if prev, dup := options[key]; dup {
			return fmt.Errorf("sweep: variants %q and %q have identical options and would collapse to one curve", prev, v.Name)
		}
		options[key] = v.Name
	}
	modes := 0
	if len(s.Loads.Flits) > 0 {
		modes++
	}
	if len(s.Loads.Fracs) > 0 {
		modes++
	}
	if s.Loads.Points > 0 {
		modes++
		if s.Loads.MaxFrac <= 0 {
			return fmt.Errorf("sweep: loads.points needs loads.max_frac > 0, got %v", s.Loads.MaxFrac)
		}
	}
	if modes != 1 {
		return fmt.Errorf("sweep: loads must set exactly one of flits, fracs, or points/max_frac (got %d forms)", modes)
	}
	if s.cells() > MaxCells {
		return fmt.Errorf("sweep: spec %q expands to more than %d cells, the limit per spec; split the grid", s.Name, MaxCells)
	}
	for _, v := range append(append([]float64{}, s.Loads.Flits...), s.Loads.Fracs...) {
		if v <= 0 {
			return fmt.Errorf("sweep: bad load point %v, must be > 0", v)
		}
	}
	if s.withSim() && s.Budget.Measure <= 0 {
		return fmt.Errorf("sweep: simulating (with_sim or a %q backend) needs budget.measure > 0, got %d",
			BackendSim, s.Budget.Measure)
	}
	if s.Budget.Warmup < 0 || s.Budget.Measure < 0 {
		return fmt.Errorf("sweep: bad budget window (warmup=%d, measure=%d)", s.Budget.Warmup, s.Budget.Measure)
	}
	if s.Budget.DrainLimit < 0 {
		return fmt.Errorf("sweep: bad budget drain limit %d", s.Budget.DrainLimit)
	}
	if p := s.Budget.Precision; p < 0 || math.IsNaN(p) || p >= 1 {
		return fmt.Errorf("sweep: bad budget precision %v, must be in [0, 1)", p)
	}
	if s.Budget.Replicas < 0 {
		return fmt.Errorf("sweep: bad budget replicas %d, must be >= 0", s.Budget.Replicas)
	}
	wkeys := make(map[string]string, len(s.Workloads))
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if err := w.Validate(); err != nil {
			return fmt.Errorf("sweep: workloads[%d]: %w", i, err)
		}
		// Cache keys hash a workload's canonical key, not its name, so
		// two identically parameterised workloads would silently collapse
		// at expansion; reject them instead (mirrors the variant rule).
		key := w.Canonical()
		if prev, dup := wkeys[key]; dup {
			return fmt.Errorf("sweep: workloads %q and %q are identical and would collapse to one curve",
				prev, w.Label())
		}
		wkeys[key] = w.Label()
	}
	return nil
}

// workloads returns the workload list with the default (the paper's
// steady uniform Poisson workload) applied.
func (s *Spec) workloads() []*workload.Spec {
	if len(s.Workloads) == 0 {
		return []*workload.Spec{nil}
	}
	out := make([]*workload.Spec, len(s.Workloads))
	for i := range s.Workloads {
		out[i] = &s.Workloads[i]
	}
	return out
}
