package eval

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

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
// a persistent store back into scenario coordinates. It is assembled
// with strconv appends into one stack buffer rather than with fmt: the
// returned string is the only allocation (a long workload key may spill
// the buffer to the heap). A grid never builds it per cell: it keys a
// curve once (AppendCurveKey) and each cell by its Token, and joins the
// two (AppendJoinKey) only where a cell's key leaves the process.
//
// Optional fields append only when set, so a key never carries
// defaulted noise; floats use strconv's 'x' hex format, which
// round-trips bit-exactly. Stores persisted before keys became
// readable (when Key returned a sha256 of this same layout) no longer
// match and simply re-fill cold.
func (s Scenario) Key() string {
	var buf [256]byte
	return string(s.appendKey(buf[:0], s.Workload.Canonical(), false))
}

// AppendCurveKey appends the scenario's curve key to b: its Key with the
// load= and seed= values left empty, so every cell of one curve shares
// it. workload stands for s.Workload.Canonical(), which a grid computes
// once per workload rather than once per curve.
func (s *Scenario) AppendCurveKey(b []byte, workload string) []byte {
	return s.appendKey(b, workload, true)
}

// Token is a cell's place on its curve: the two values a curve key leaves
// empty. Load holds the load value's bits; Seed the derived simulation
// seed (Scenario.Seed, which the key spells rather than the load index it
// comes from), zero on a curve without the simulator. A curve key and a
// token are a cell's key, split: AppendJoinKey and SplitKey convert.
type Token struct {
	Load, Seed uint64
}

// Token returns the scenario's cell token.
func (s *Scenario) Token() Token {
	t := Token{Load: math.Float64bits(s.Load.Value)}
	if s.WithSim {
		t.Seed = s.Seed()
	}
	return t
}

// appendKey appends the scenario's key to b, with workload standing for
// the workload's canonical form ("" for the default workload) — or, with
// curve set, its curve key: the same bytes with the load= and seed=
// values left empty.
func (s *Scenario) appendKey(b []byte, workload string, curve bool) []byte {
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
	if !curve {
		b = strconv.AppendFloat(b, s.Load.Value, 'x', -1, 64)
	}
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
		if !curve {
			b = strconv.AppendUint(b, s.Seed(), 10)
		}
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

// curveFields returns where a curve key's two empty values go: the offset
// just past its load= (-1 for a string with none) and just past its seed=
// (-1 on a curve without the simulator). The fields before load= hold no
// "load=", so the search needs no field's leading space — keys are full
// of spaces, which makes a space-led search slow.
func curveFields(curve string) (load, seed int) {
	load = strings.Index(curve, "load=")
	if load < 0 {
		return -1, -1
	}
	load += len("load=")
	if seed = seedField(curve[load:]); seed >= 0 {
		seed += load
	}
	return load, seed
}

// seedField returns the offset just past the seed= of a key's tail that
// follows the load value, or -1 when the tail's sim field is not true: the
// first "sim=" there is the sim field, and no field between it and seed=
// holds "seed=".
func seedField(tail string) int {
	i := strings.Index(tail, "sim=")
	if i < 0 || !strings.HasPrefix(tail[i+len("sim="):], "true") {
		return -1
	}
	j := strings.Index(tail[i:], "seed=")
	if j < 0 {
		return -1
	}
	return i + j + len("seed=")
}

// cutValue splits a field's value off the rest of a key.
func cutValue(s string) (val, rest string) {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// AppendJoinKey appends to b the key of the cell t on the curve whose
// curve key is curve: the scenario's Key, byte for byte. A string with no
// load= field is no curve key, and is appended as it is.
func AppendJoinKey(b []byte, curve string, t Token) []byte {
	load, seed := curveFields(curve)
	if load < 0 {
		return append(b, curve...)
	}
	b = strconv.AppendFloat(append(b, curve[:load]...), math.Float64frombits(t.Load), 'x', -1, 64)
	if seed < 0 {
		return append(b, curve[load:]...)
	}
	b = strconv.AppendUint(append(b, curve[load:seed]...), t.Seed, 10)
	return append(b, curve[seed:]...)
}

// SplitKey inverts AppendJoinKey: it appends key's curve key to b and
// returns it with the cell's token. ok is false for a string
// AppendJoinKey would not write back byte for byte — no load= field, or
// a load or seed value in a non-canonical spelling — and b is then
// returned unchanged.
func SplitKey(b []byte, key string) (curve []byte, t Token, ok bool) {
	load := strings.Index(key, "load=")
	if load < 0 {
		return b, Token{}, false
	}
	load += len("load=")
	val, rest := cutValue(key[load:])
	f, err := strconv.ParseFloat(val, 64)
	var num [32]byte
	if err != nil || string(strconv.AppendFloat(num[:0], f, 'x', -1, 64)) != val {
		return b, Token{}, false
	}
	t.Load = math.Float64bits(f)
	curve = append(b, key[:load]...)
	// rest is the curve key's tail too: the join finds seed= where this does.
	if seed := seedField(rest); seed >= 0 {
		val, after := cutValue(rest[seed:])
		if t.Seed, err = strconv.ParseUint(val, 10, 64); err != nil || string(strconv.AppendUint(num[:0], t.Seed, 10)) != val {
			return b, Token{}, false
		}
		curve = append(curve, rest[:seed]...)
		rest = after
	}
	return append(curve, rest...), t, true
}

// KeyArena hands out strings cut from fixed strings.Builder chunks, so
// keys that live as long as a grid or an index cost a few allocations
// rather than one each. A Builder only ever appends, so a string cut from
// its buffer stays valid and unchanged when the chunk is written on or
// abandoned; a retained key pins at most its own chunk. The zero value is
// ready to use.
type KeyArena struct {
	chunk strings.Builder
}

// KeyChunk is the size of a KeyArena's chunks: a few dozen keys share
// each allocation.
const KeyChunk = 4 << 10

// Cut copies key into the current chunk and returns it as a slice of the
// chunk. A key that does not fit opens a new chunk of KeyChunk bytes, or
// of about what the remaining keys need, each about as long as this one,
// when that is less; a key longer than KeyChunk gets a chunk of its own
// size.
func (a *KeyArena) Cut(key []byte, remaining int) string {
	if a.chunk.Cap()-a.chunk.Len() < len(key) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(len(key), min(KeyChunk, remaining*len(key))))
	}
	start := a.chunk.Len()
	a.chunk.Write(key)
	return a.chunk.String()[start:]
}
