package eval

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Topology families understood by Topology.Family.
const (
	// FamilyBFT is the paper's butterfly fat-tree; sizes are processor
	// counts (powers of four >= 4).
	FamilyBFT = "bft"
	// FamilyHypercube is the binary hypercube; sizes are dimension counts.
	FamilyHypercube = "hypercube"
	// FamilyTorus is the unidirectional k-ary n-cube; sizes are dimension
	// counts and K is the radix. The torus has an analytical model but no
	// simulator topology, so torus scenarios must be model-only.
	FamilyTorus = "torus"
)

// Topology identifies one concrete network instance.
type Topology struct {
	// Family is a Family* constant.
	Family string `json:"family"`
	// Size is the processor count (fat-tree) or dimension count
	// (hypercube, torus).
	Size int `json:"size"`
	// K is the torus radix; 0 for the other families.
	K int `json:"k,omitempty"`
}

// String names the instance, e.g. "bft-1024" or "torus-4x3".
func (t Topology) String() string {
	if t.Family == FamilyTorus {
		return "torus-" + strconv.Itoa(t.K) + "x" + strconv.Itoa(t.Size)
	}
	return t.Family + "-" + strconv.Itoa(t.Size)
}

// NewModel builds the analytical model for the instance with the given
// ablation options.
func (t Topology) NewModel(msgFlits int, opt core.Options) (*analytic.Model, error) {
	var (
		ft  *analytic.FatTreeModel
		tm  *analytic.TorusModel
		err error
	)
	switch t.Family {
	case FamilyBFT:
		if ft, err = analytic.NewFatTreeModel(t.Size, float64(msgFlits), opt); err == nil {
			return &ft.Model, nil
		}
	case FamilyHypercube:
		if tm, err = analytic.NewHypercubeModel(t.Size, float64(msgFlits), opt); err == nil {
			return &tm.Model, nil
		}
	case FamilyTorus:
		if tm, err = analytic.NewTorusModel(t.K, t.Size, float64(msgFlits), opt); err == nil {
			return &tm.Model, nil
		}
	default:
		err = fmt.Errorf("eval: unknown family %q", t.Family)
	}
	return nil, err
}

// CheckSimSize reports whether the instance, simulated as replicas
// concurrent replicas (zero or one: a single run), is too large to
// simulate: every replica builds its own engine, so the bound is on
// replicas × processors. It costs arithmetic only: specs and servers
// call it before anything is built. Model-only evaluation is not bound
// by it.
func (t Topology) CheckSimSize(replicas int) error {
	limit := topology.MaxProcessors / max(replicas, 1)
	over := t.Size > limit
	if t.Family == FamilyHypercube {
		over = t.Size > bits.Len(uint(limit))-1 // 2^Size processors
	}
	switch {
	case !over:
		return nil
	case replicas > 1:
		return fmt.Errorf("eval: %d replicas of %s are too large to simulate: the limit is %d processors", replicas, t, topology.MaxProcessors)
	}
	return fmt.Errorf("eval: %s is too large to simulate: the limit is %d processors", t, topology.MaxProcessors)
}

// NewNetwork builds the simulator topology for the instance.
func (t Topology) NewNetwork() (topology.Network, error) {
	if err := t.CheckSimSize(1); err != nil {
		return nil, err
	}
	switch t.Family {
	case FamilyBFT:
		return topology.NewFatTree(t.Size)
	case FamilyHypercube:
		return topology.NewHypercube(t.Size)
	default:
		return nil, fmt.Errorf("eval: family %q has no simulator topology", t.Family)
	}
}

// Budget scales the simulation effort of a scenario.
type Budget struct {
	// Warmup and Measure are the simulator's window sizes in cycles.
	Warmup  int `json:"warmup"`
	Measure int `json:"measure"`
	// Seed is the base seed; each scenario derives its own from it (see
	// Scenario.Seed).
	Seed uint64 `json:"seed"`
	// DrainLimit bounds the extra cycles after the measurement window
	// while tracked messages finish; 0 picks the simulator's default.
	DrainLimit int `json:"drain_limit,omitempty"`
	// Precision, when positive, turns on the simulator's CI-width early
	// stopping: the run may close its measurement window as soon as the
	// 95% relative half-width of the latency estimate drops to this value
	// (0.05 = ±5%). Measure then acts as a ceiling rather than a fixed
	// window. Zero keeps the classic fixed-window behaviour.
	Precision float64 `json:"precision,omitempty"`
	// Replicas, when > 1, runs that many independent simulation replicas
	// (derived seeds, see sim.ReplicaSeed) concurrently and pools their
	// statistics. Zero or one means a single replica.
	Replicas int `json:"replicas,omitempty"`
}

// Load is one load point of a scenario.
type Load struct {
	// Frac marks Value as a fraction of the curve's model saturation
	// load; otherwise Value is absolute flits/cycle/processor.
	Frac bool `json:"frac,omitempty"`
	// Value is the load point.
	Value float64 `json:"value"`
}

// Variant selects a model ablation: the paper's model with one of its
// novel ingredients removed. The zero value (no toggles) is the paper's
// model. Variants change only the analytic side of a cell; fractional
// loads stay anchored at the base model's saturation so every variant of
// a curve is probed at the same absolute loads.
type Variant struct {
	// Name labels the variant in reports and curve keys.
	Name string `json:"name,omitempty"`
	// NoBlockingCorrection drops the Eq. 9/10 wormhole blocking term.
	NoBlockingCorrection bool `json:"no_blocking_correction,omitempty"`
	// SingleServerGroups models the up-link pair as two independent
	// M/G/1 queues instead of one M/G/2.
	SingleServerGroups bool `json:"single_server_groups,omitempty"`
	// NoPairRateCorrection reverts to the paper's pre-erratum M/G/2 rate.
	NoPairRateCorrection bool `json:"no_pair_rate_correction,omitempty"`
	// WithSim runs the simulator reference on this variant's cells (the
	// simulator does not depend on model options, so specs typically
	// enable it on exactly one variant).
	WithSim bool `json:"with_sim,omitempty"`
}

// Options maps the variant to the model toggles of package core.
func (v Variant) Options() core.Options {
	return core.Options{
		NoBlockingCorrection: v.NoBlockingCorrection,
		SingleServerGroups:   v.SingleServerGroups,
		NoPairRateCorrection: v.NoPairRateCorrection,
	}
}

// IsBase reports whether the variant is the paper's model (no toggles).
func (v Variant) IsBase() bool {
	return !v.NoBlockingCorrection && !v.SingleServerGroups && !v.NoPairRateCorrection
}

// Scenario is one fully determined evaluation question: a topology
// instance, message length, policy, model variant, and a single load
// point.
type Scenario struct {
	// Index is the cell's position in the expanded grid.
	Index int `json:"index"`
	// Topology, MsgFlits, Policy and Load identify the cell.
	Topology Topology         `json:"topology"`
	MsgFlits int              `json:"msg_flits"`
	Policy   sim.UpLinkPolicy `json:"-"`
	Load     Load             `json:"load"`
	// Variant selects the model ablation; the zero value is the paper's
	// model.
	Variant Variant `json:"variant"`
	// LoadIndex is the cell's position within its curve; it, not Index,
	// drives the seed so that adding topologies or message lengths to a
	// spec does not perturb existing cells.
	LoadIndex int `json:"load_index"`
	// WithSim and Budget describe the execution.
	WithSim bool   `json:"with_sim"`
	Budget  Budget `json:"budget"`
	// WithBounds asks the network-calculus bounds backend (package
	// bounds) for a guaranteed worst-case latency on this cell; like
	// WithSim for the simulator, the bounds backend skips scenarios
	// that did not opt in.
	WithBounds bool `json:"with_bounds,omitempty"`
	// Workload selects the arrival/mix/pattern workload; nil is the
	// paper's steady uniform Poisson workload. Non-default workloads
	// change the simulated result (and mark the analytic side
	// not-applicable), so the canonical workload key joins Key.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// Seed derives the scenario's simulation seed from the budget seed and
// the scenario's position within its curve, so results never depend on
// scheduling order or grid width. The derivation matches what
// exp.CompareCurve applies along a multi-point curve, which is why a
// Figure 3 sweep reproduces the direct computation bit for bit; grids whose cells
// were historically simulated one point at a time (the pre-sweep
// ValidationGrid) now give each load position its own seed instead of
// reusing the base seed, which shifts their sim values at noise level.
func (s Scenario) Seed() uint64 {
	return s.Budget.Seed + uint64(s.LoadIndex)*7919
}

// CurveKey identifies the curve (topology × message length × policy ×
// variant) the scenario belongs to. Like Key, it runs once per cell in
// curve resolution, so it avoids fmt.
func (s Scenario) CurveKey() string {
	key := s.Topology.String() + "/s=" + strconv.Itoa(s.MsgFlits) + "/" + s.Policy.String()
	if s.Variant != (Variant{}) {
		key += "/v=" + s.Variant.Name
	}
	if wk := s.Workload.Canonical(); wk != "" {
		key += "/w=" + wk
	}
	return key
}

// Key returns the scenario's cache key: a readable, canonical encoding
// of every field that influences its result (and nothing else — Index
// and the variant's cosmetic name are excluded, so the same cell
// reached from different specs hits the same cache line). appendKey is
// the key grammar, written once: ParseKey accepts exactly the strings it
// writes, which is what lets the calibration layer (internal/calib) mine
// a persistent store back into scenario coordinates. Key sits on every
// hot path — grid expansion dedup, runner cache lookups, the dispatch
// coordinator's cache pass — so it is assembled with strconv appends
// into one stack buffer rather than with fmt: the returned string is
// the only allocation (a long workload key may spill the buffer to the
// heap).
//
// Optional fields append only when set, so a key never carries
// defaulted noise; floats use strconv's 'x' hex format, which
// round-trips bit-exactly. Stores persisted before keys became
// readable (when Key returned a sha256 of this same layout) no longer
// match and simply re-fill cold.
func (s Scenario) Key() string {
	var buf [256]byte
	return string(s.appendKey(buf[:0], s.Workload.Canonical()))
}

// AppendKey appends the scenario's key to b, with workload standing for
// s.Workload.Canonical(), which a grid computes once per workload rather
// than once per cell. It is the key writer Key uses: sweep.ExpandKeyed
// writes a grid's keys through it into shared chunks.
func (s *Scenario) AppendKey(b []byte, workload string) []byte { return s.appendKey(b, workload) }

// appendKey appends the scenario's key to b, with workload standing for
// the workload's canonical form ("" for the default workload).
func (s *Scenario) appendKey(b []byte, workload string) []byte {
	b = append(b, "family="...)
	b = append(b, s.Topology.Family...)
	b = append(b, " size="...)
	b = strconv.AppendInt(b, int64(s.Topology.Size), 10)
	b = append(b, " k="...)
	b = strconv.AppendInt(b, int64(s.Topology.K), 10)
	b = append(b, " flits="...)
	b = strconv.AppendInt(b, int64(s.MsgFlits), 10)
	b = append(b, " policy="...)
	b = append(b, s.Policy.String()...)
	b = append(b, " frac="...)
	b = strconv.AppendBool(b, s.Load.Frac)
	b = append(b, " load="...)
	b = strconv.AppendFloat(b, s.Load.Value, 'x', -1, 64)
	if !s.Variant.IsBase() {
		b = append(b, " variant="...)
		b = strconv.AppendBool(b, s.Variant.NoBlockingCorrection)
		b = strconv.AppendBool(b, s.Variant.SingleServerGroups)
		b = strconv.AppendBool(b, s.Variant.NoPairRateCorrection)
	}
	b = append(b, " sim="...)
	b = strconv.AppendBool(b, s.WithSim)
	if s.WithSim {
		b = append(b, " warmup="...)
		b = strconv.AppendInt(b, int64(s.Budget.Warmup), 10)
		b = append(b, " measure="...)
		b = strconv.AppendInt(b, int64(s.Budget.Measure), 10)
		b = append(b, " seed="...)
		b = strconv.AppendUint(b, s.Seed(), 10)
		if s.Budget.DrainLimit != 0 {
			b = append(b, " drain="...)
			b = strconv.AppendInt(b, int64(s.Budget.DrainLimit), 10)
		}
		// The early-stopping and replica knobs change the measured result,
		// so they belong in the key — but only when set, preserving the
		// keys of every result persisted before the knobs existed.
		if s.Budget.Precision > 0 {
			b = append(b, " prec="...)
			b = strconv.AppendFloat(b, s.Budget.Precision, 'x', -1, 64)
		}
		if s.Budget.Replicas > 1 {
			b = append(b, " reps="...)
			b = strconv.AppendInt(b, int64(s.Budget.Replicas), 10)
		}
	}
	// Appended only when non-default, preserving every pre-workload
	// persisted key.
	if workload != "" {
		b = append(b, " workload="...)
		b = append(b, workload...)
	}
	// Appended only when set, preserving every pre-bounds persisted key;
	// the bit distinguishes bound-carrying cache lines from plain ones,
	// which is what lets spec-level backend selection share the default
	// (unsalted) store.
	if s.WithBounds {
		b = append(b, " bounds=true"...)
	}
	return b
}
