// Package calib is the calibration observatory: it mines model-vs-sim
// result pairs out of a result store (or any other Range-able cache),
// buckets them into regions of scenario space, and keeps per-region
// accuracy metrics — MAPE, signed bias, Pearson correlation, max
// relative error — that tell the rest of the system where the analytic
// model can be trusted.
//
// A region is topology instance × message length × policy × workload ×
// load band (relative to the model's saturation point). One cell
// contributes one pair when both its model and sim sides are finite and
// unsaturated; the derived seed and budget deliberately do not split
// regions, so replicated measurements of the same physical question
// accumulate together. A cell is its scenario key; a store may also
// hold the same key behind a backend salt (the custom backend lists,
// fleet tags and spelled-out built-in lists older versions wrote) —
// mined, it is the same measurement and pairs once. Only the paper's
// model is calibrated — a sim-carrying cell of an ablation variant is
// mined but never pairs, because the trust gate reads a region as the
// base model's error.
//
// The result store is the record and a map is a read of it: a process
// builds one with NewMap and Mines the store (cmd/calib -store,
// cmd/plan -cache-dir); nothing feeds a map as cells land. The planner
// consumes the map through Verdict, which grades a region trusted /
// escalated / uncalibrated against a Gate; docs/calibration.md
// specifies the semantics.
package calib

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/eval"
)

// Verdicts returned by Map.Verdict and recorded on plan.decision spans.
const (
	// VerdictTrusted means the region's error record clears the gate:
	// enough pairs and MAPE at or under the threshold. The planner may
	// rely on the analytic model there without a sim probe.
	VerdictTrusted = "trusted"
	// VerdictEscalated means the region has enough pairs but the model's
	// error is above threshold — sim evidence is required.
	VerdictEscalated = "escalated"
	// VerdictUncalibrated means coverage is too thin to judge (few or no
	// pairs); sim evidence is required and will thicken the region.
	VerdictUncalibrated = "uncalibrated"
)

// BandUnanchored labels cells whose load could not be expressed relative
// to the model's saturation point (unknown saturation or missing load).
const BandUnanchored = "unanchored"

// bandEdges are the upper bounds (exclusive) of the relative-load bands.
var bandEdges = [...]struct {
	hi    float64
	label string
}{
	{0.25, "<25%"},
	{0.5, "25-50%"},
	{0.75, "50-75%"},
	{0.9, "75-90%"},
	{1.0, "90-100%"},
}

// BandOf buckets a load expressed as a fraction of the model's
// saturation load. NaN or negative fractions land in BandUnanchored.
func BandOf(rel float64) string {
	if math.IsNaN(rel) || rel < 0 {
		return BandUnanchored
	}
	for _, b := range bandEdges {
		if rel < b.hi {
			return b.label
		}
	}
	return ">=100%"
}

// Region is one bucket of scenario space. It is comparable, so it keys
// the map directly and two cells of the same region always merge.
type Region struct {
	// Topo is the topology instance name (eval.Topology.String()), e.g.
	// "bft-256" — family and size in one coordinate.
	Topo string `json:"topo"`
	// MsgFlits is the message length in flits.
	MsgFlits int `json:"msg_flits"`
	// Policy is the up-link policy name ("pairqueue", "randomfixed").
	Policy string `json:"policy"`
	// Workload is the canonical workload ("" = steady uniform Poisson).
	Workload string `json:"workload,omitempty"`
	// Band is a BandOf label: the load band relative to saturation.
	Band string `json:"band"`
}

// String names the region for spans, metrics labels, and reports, in
// the same topo/s=N/policy shape as curve keys, with the workload and
// band appended: "bft-256/s=16/pairqueue/75-90%".
func (r Region) String() string {
	s := r.Topo + "/s=" + strconv.Itoa(r.MsgFlits) + "/" + r.Policy
	if r.Workload != "" {
		s += "/w=" + r.Workload
	}
	return s + "/" + r.Band
}

// RegionFor builds the region a scenario cell belongs to. rel is the
// cell's load as a fraction of the model's saturation load (NaN when
// unknown).
func RegionFor(topo eval.Topology, msgFlits int, policy, wkload string, rel float64) Region {
	return Region{
		Topo:     topo.String(),
		MsgFlits: msgFlits,
		Policy:   policy,
		Workload: wkload,
		Band:     BandOf(rel),
	}
}

// Gate is the trust threshold Verdict grades a region against. It is
// also a plan spec's "calibration" section, where a zero field takes
// DefaultGate's value.
type Gate struct {
	// MaxMAPE is the largest mean absolute percentage error (fractional,
	// 0.1 = 10%) a trusted region may carry.
	MaxMAPE float64 `json:"max_mape,omitempty"`
	// MinPairs is the fewest pairs a region needs before its MAPE is
	// considered evidence at all.
	MinPairs int `json:"min_pairs,omitempty"`
}

// DefaultGate trusts a region at MAPE ≤ 0.1 over at least 3 pairs.
var DefaultGate = Gate{MaxMAPE: 0.1, MinPairs: 3}

// acc is one region's raw accumulator state. Every field is a running
// sum (or count, or max) over finite values, so the derived metrics
// update in O(1) per pair.
type acc struct {
	N         int
	SumAbsRel float64
	SumRel    float64
	SumM      float64
	SumS      float64
	SumMM     float64
	SumSS     float64
	SumMS     float64
	MaxRel    float64
	// BoundN / SumBoundRel track bound tightness (BoundMax / sim) over
	// the subset of pairs that also carried a finite worst-case bound.
	BoundN      int
	SumBoundRel float64
}

func (a *acc) add(model, sim, boundMax float64) {
	rel := (model - sim) / sim
	a.N++
	a.SumAbsRel += math.Abs(rel)
	a.SumRel += rel
	a.SumM += model
	a.SumS += sim
	a.SumMM += model * model
	a.SumSS += sim * sim
	a.SumMS += model * sim
	if ar := math.Abs(rel); ar > a.MaxRel {
		a.MaxRel = ar
	}
	if !math.IsNaN(boundMax) && !math.IsInf(boundMax, 0) {
		a.BoundN++
		a.SumBoundRel += boundMax / sim
	}
}

// mape is the mean absolute percentage error (fractional).
func (a *acc) mape() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.SumAbsRel / float64(a.N)
}

// bias is the mean signed relative error; negative means the model
// under-predicts the simulator.
func (a *acc) bias() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.SumRel / float64(a.N)
}

// pearson is the correlation of model and sim values, NaN when fewer
// than two pairs or either side has zero variance.
func (a *acc) pearson() float64 {
	if a.N < 2 {
		return math.NaN()
	}
	n := float64(a.N)
	num := n*a.SumMS - a.SumM*a.SumS
	den := (n*a.SumMM - a.SumM*a.SumM) * (n*a.SumSS - a.SumS*a.SumS)
	if den <= 0 {
		return math.NaN()
	}
	return num / math.Sqrt(den)
}

// boundTightness is the mean BoundMax/sim ratio, NaN when no pair
// carried a bound.
func (a *acc) boundTightness() float64 {
	if a.BoundN == 0 {
		return math.NaN()
	}
	return a.SumBoundRel / float64(a.BoundN)
}

// Map is the calibration map: per-region accuracy accumulators plus the
// set of scenario keys already observed (so mining a store twice, or
// meeting one cell in a store under two salts, never double-counts a
// pair). All methods are safe for concurrent use; a nil *Map is a valid
// empty map.
type Map struct {
	mu      sync.Mutex
	regions map[Region]*acc
	seen    map[string]struct{}
	pairs   int64
	sat     *eval.AnalyticBackend
}

// NewMap returns an empty calibration map.
func NewMap() *Map {
	return &Map{
		regions: make(map[Region]*acc),
		seen:    make(map[string]struct{}),
		sat:     eval.NewAnalyticBackend(),
	}
}

// simCarrying reports whether a point holds simulator evidence — the
// one-branch fast path that keeps Observe effectively free on the vast
// model-only majority of cells.
func simCarrying(pt eval.Point) bool {
	return !math.IsNaN(pt.Sim) || pt.SimSaturated
}

// pairable reports whether a point is a usable model-vs-sim pair: both
// sides finite and unsaturated, the model applicable, and the sim mean
// positive (relative errors divide by it).
func pairable(pt eval.Point) bool {
	return !pt.SimSaturated && !pt.ModelSaturated && !pt.ModelNA &&
		!math.IsNaN(pt.Model) && !math.IsInf(pt.Model, 0) &&
		!math.IsNaN(pt.Sim) && pt.Sim > 0
}

// Observe feeds one cache cell into the map and reports whether it
// became a new calibration pair. Cells without simulator evidence
// return immediately; sim-carrying cells are deduplicated by scenario
// key — a stored line minus its backend salt, if Mine met one — so
// feeding the same cell twice, under whichever salts, is harmless.
func (m *Map) Observe(_ context.Context, key string, pt eval.Point) bool {
	if m == nil || !simCarrying(pt) {
		return false
	}
	_, cell := eval.CutSalt(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.seen[cell]; dup {
		return false
	}
	m.seen[cell] = struct{}{}
	sc, wk, err := eval.ParseKey(cell)
	if err != nil || !pairable(pt) || !sc.Variant.IsBase() {
		return false
	}
	rel := math.NaN()
	if sat, err := m.sat.SaturationLoad(sc.Topology, sc.MsgFlits); err == nil && sat > 0 && !math.IsNaN(pt.LoadFlits) {
		rel = pt.LoadFlits / sat
	}
	r := RegionFor(sc.Topology, sc.MsgFlits, sc.Policy.String(), wk, rel)
	a, ok := m.regions[r]
	if !ok {
		a = &acc{}
		m.regions[r] = a
	}
	a.add(pt.Model, pt.Sim, pt.BoundMax)
	m.pairs++
	return true
}

// ObserveCell is Observe without its result. Its only caller is the
// benchmark's calib.observe_us probe (bench/layers.go), which prices one
// mined cell through it.
func (m *Map) ObserveCell(ctx context.Context, key string, cell eval.Point) {
	m.Observe(ctx, key, cell)
}

// Source is anything the map can mine: a snapshot iterator over cache
// cells. *store.Store and *sweep.Cache both satisfy it.
type Source interface {
	Range(fn func(key string, pt eval.Point) bool)
}

// Mine walks src and observes every cell, returning how many new pairs
// it added. Already-observed keys are skipped, so Mine is idempotent.
func (m *Map) Mine(ctx context.Context, src Source) (added int) {
	if m == nil {
		return 0
	}
	src.Range(func(key string, pt eval.Point) bool {
		if m.Observe(ctx, key, pt) {
			added++
		}
		return true
	})
	return added
}

// Verdict grades a region against a gate: VerdictTrusted when it has at
// least g.MinPairs pairs and MAPE ≤ g.MaxMAPE, VerdictEscalated when it
// has the pairs but too much error, VerdictUncalibrated when coverage
// is too thin to judge (including a nil map or unknown region). The
// returned mape is NaN for uncalibrated regions with no pairs.
func (m *Map) Verdict(r Region, g Gate) (verdict string, mape float64, pairs int) {
	if m == nil {
		return VerdictUncalibrated, math.NaN(), 0
	}
	m.mu.Lock()
	a, ok := m.regions[r]
	if ok {
		pairs, mape = a.N, a.mape()
	} else {
		mape = math.NaN()
	}
	m.mu.Unlock()
	if !ok || pairs < g.MinPairs {
		return VerdictUncalibrated, mape, pairs
	}
	if mape <= g.MaxMAPE {
		return VerdictTrusted, mape, pairs
	}
	return VerdictEscalated, mape, pairs
}

// RegionReport is one region's derived metrics, JSON-safe: Pearson and
// bound tightness are pointers that go null where undefined.
type RegionReport struct {
	Region
	Name           string   `json:"name"`
	Pairs          int      `json:"pairs"`
	MAPE           float64  `json:"mape"`
	Bias           float64  `json:"bias"`
	Pearson        *float64 `json:"pearson"`
	MaxRelErr      float64  `json:"max_rel_err"`
	BoundTightness *float64 `json:"bound_tightness,omitempty"`
}

// Report is the full map rendered for humans and JSON: every region's
// metrics (sorted by name) plus the global pair count and the worst
// region by MAPE.
type Report struct {
	Pairs       int64          `json:"pairs"`
	Regions     []RegionReport `json:"regions"`
	WorstMAPE   *float64       `json:"worst_mape,omitempty"`
	WorstRegion string         `json:"worst_region,omitempty"`
}

// Report snapshots the map's derived metrics.
func (m *Map) Report() Report {
	var rep Report
	if m == nil {
		return rep
	}
	m.mu.Lock()
	rep.Pairs = m.pairs
	rep.Regions = make([]RegionReport, 0, len(m.regions))
	for r, a := range m.regions {
		rep.Regions = append(rep.Regions, RegionReport{
			Region:         r,
			Name:           r.String(),
			Pairs:          a.N,
			MAPE:           a.mape(),
			Bias:           a.bias(),
			Pearson:        eval.Finite(a.pearson()),
			MaxRelErr:      a.MaxRel,
			BoundTightness: eval.Finite(a.boundTightness()),
		})
	}
	m.mu.Unlock()
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].Name < rep.Regions[j].Name })
	worst := math.NaN()
	for _, r := range rep.Regions {
		if math.IsNaN(worst) || r.MAPE > worst {
			worst = r.MAPE
			rep.WorstRegion = r.Name
		}
	}
	rep.WorstMAPE = eval.Finite(worst)
	return rep
}

// Pairs returns the total pair count.
func (m *Map) Pairs() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pairs
}
