// Package workload declares the simulator's workload axis: which
// open-loop arrival process each processing element runs, how the mean
// injection rate is mixed across sources, and how destinations are
// drawn. The zero Spec is the paper's workload — steady uniform Poisson
// injection with uniformly random destinations — and is guaranteed
// bit-identical to the pre-workload engine (pinned in internal/sim's
// tests). Everything else (Gamma/Weibull renewal interarrivals, the
// two-state MMPP on-off process, rate ramps and top-K heavy sources,
// hotspot and locality destination patterns, and NDJSON trace replay)
// layers on top of traffic.Source without touching the engine core.
//
// See docs/workload.md for the spec grammar and the trace determinism
// contract.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/traffic"
)

// Arrival process names understood by Spec.Process.
const (
	ProcessPoisson = "poisson"
	ProcessGamma   = "gamma"
	ProcessWeibull = "weibull"
	ProcessMMPP    = "mmpp"
)

// Rate-mix names understood by Spec.Mix.
const (
	MixUniform = "uniform"
	MixRamp    = "ramp"
	MixTopK    = "topk"
)

// Destination-pattern names understood by Spec.Pattern.
const (
	PatternUniform       = "uniform"
	PatternHotspot       = "hotspot"
	PatternLocality      = "locality"
	PatternBitComplement = "bitcomplement"
	PatternTranspose     = "transpose"
)

// Spec declares one workload. Every field is optional; the zero value is
// the paper's steady uniform Poisson workload. Specs travel inside
// eval.Scenario wire JSON and sweep specs, so field names are part of
// the wire format and decode strictly (unknown fields are rejected with
// a did-you-mean hint by sweep.DecodeStrict).
type Spec struct {
	// Name labels the workload in reports and curve keys; it does not
	// affect results and is excluded from the canonical key.
	Name string `json:"name,omitempty"`

	// Process selects the interarrival process: "poisson" (default),
	// "gamma", "weibull", or "mmpp".
	Process string `json:"process,omitempty"`
	// Shape is the Gamma/Weibull shape parameter (SCV 1/shape for
	// gamma). Required for gamma and weibull.
	Shape float64 `json:"shape,omitempty"`
	// OnFrac is the MMPP stationary ON fraction in (0, 1].
	OnFrac float64 `json:"on_frac,omitempty"`
	// BurstCycles is the MMPP mean ON-burst duration in cycles.
	BurstCycles float64 `json:"burst_cycles,omitempty"`

	// Mix spreads the mean rate across sources: "uniform" (default),
	// "ramp" (linear ramp from source 0 to n−1 with end-to-end ratio
	// RampRatio), or "topk" (MixK sources carry MixFrac of the total).
	// Every mix preserves the configured mean rate.
	Mix string `json:"mix,omitempty"`
	// RampRatio is the last/first source rate ratio for "ramp" (> 0).
	RampRatio float64 `json:"ramp_ratio,omitempty"`
	// MixK is the number of heavy sources for "topk".
	MixK int `json:"mix_k,omitempty"`
	// MixFrac is the fraction of total load the heavy sources carry.
	MixFrac float64 `json:"mix_frac,omitempty"`

	// Pattern selects the destination pattern: "uniform" (default),
	// "hotspot" (fraction HotFrac split over the Hot set), "locality"
	// (weight decay^distance), "bitcomplement", or "transpose".
	Pattern string `json:"pattern,omitempty"`
	// Hot lists hotspot destination processors; defaults to [0].
	Hot []int `json:"hot,omitempty"`
	// HotFrac is the fraction of messages aimed at the hot set.
	HotFrac float64 `json:"hot_frac,omitempty"`
	// Decay is the locality decay per channel of distance, in (0, 1).
	Decay float64 `json:"decay,omitempty"`

	// Trace replays a recorded arrival trace (see Trace and bft sim -record)
	// from this NDJSON file instead of generating arrivals; all process,
	// mix and pattern fields must be unset. The canonical key includes
	// the path — trace files are immutable by contract (re-record under
	// a new name rather than editing in place).
	Trace string `json:"trace,omitempty"`
}

// IsDefault reports whether the spec (nil included) is the paper's
// steady uniform Poisson workload.
func (s *Spec) IsDefault() bool {
	return s == nil || s.Canonical() == ""
}

// Canonical returns a deterministic key for every result-affecting
// field, used in store/cache keys and curve labels. The default workload
// canonicalises to "" so pre-workload store keys stay valid.
func (s *Spec) Canonical() string {
	if s == nil {
		return ""
	}
	if s.Trace != "" {
		return "trace:" + s.Trace
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	proc := ""
	switch s.Process {
	case "", ProcessPoisson:
	case ProcessGamma:
		proc = "gamma(" + g(s.Shape) + ")"
	case ProcessWeibull:
		proc = "weibull(" + g(s.Shape) + ")"
	case ProcessMMPP:
		proc = "mmpp(" + g(s.OnFrac) + "," + g(s.BurstCycles) + ")"
	default:
		proc = s.Process
	}
	mix := ""
	switch s.Mix {
	case "", MixUniform:
	case MixRamp:
		mix = "ramp(" + g(s.RampRatio) + ")"
	case MixTopK:
		mix = "topk(" + strconv.Itoa(s.MixK) + "," + g(s.MixFrac) + ")"
	default:
		mix = s.Mix
	}
	pat := ""
	switch s.Pattern {
	case "", PatternUniform:
	case PatternHotspot:
		hot := s.hotSet()
		parts := make([]string, len(hot))
		for i, h := range hot {
			parts[i] = strconv.Itoa(h)
		}
		pat = "hotspot(" + strings.Join(parts, "+") + "," + g(s.HotFrac) + ")"
	case PatternLocality:
		pat = "locality(" + g(s.Decay) + ")"
	default:
		pat = s.Pattern
	}
	if proc == "" && mix == "" && pat == "" {
		return ""
	}
	or := func(v, def string) string {
		if v == "" {
			return def
		}
		return v
	}
	return or(proc, "poisson") + "/" + or(mix, "uniform") + "/" + or(pat, "uniform")
}

// Label names the workload in reports: the Name when set, the canonical
// key otherwise, "default" for the paper's workload.
func (s *Spec) Label() string {
	if s != nil && s.Name != "" {
		return s.Name
	}
	if key := s.Canonical(); key != "" {
		return key
	}
	return "default"
}

// ModelApplicable reports whether the paper's analytic model answers for
// this workload: only steady uniform Poisson injection with uniform
// destinations satisfies its assumptions (§2, assumption (1)). Backends
// mark everything else model-not-applicable instead of answering with a
// steady-state number.
func (s *Spec) ModelApplicable() bool { return s.IsDefault() }

// hotSet returns the sorted, deduplicated hotspot target set (default
// processor 0).
func (s *Spec) hotSet() []int {
	if len(s.Hot) == 0 {
		return []int{0}
	}
	hot := append([]int(nil), s.Hot...)
	sort.Ints(hot)
	out := hot[:1]
	for _, h := range hot[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}

// Nearest returns the member of known with the smallest edit
// (Levenshtein) distance to name, and that distance — the one
// did-you-mean search under every spec parser's error messages. Case and
// the separators '_' and '-' are ignored, so "msgflits" matches
// "msg_flits". With known empty it returns "", -1.
func Nearest(name string, known []string) (best string, dist int) {
	canon := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '_' || r == '-' {
				return -1
			}
			return r
		}, strings.ToLower(s))
	}
	dist = -1
	for _, k := range known {
		if d := editDistance(canon(name), canon(k)); dist < 0 || d < dist {
			best, dist = k, d
		}
	}
	return best, dist
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func badEnum(field, got string, opts []string) error {
	msg := fmt.Sprintf("workload: unknown %s %q (want one of %s)",
		field, got, strings.Join(opts, ", "))
	if hint, d := Nearest(got, opts); d >= 0 && d <= 2 {
		msg += fmt.Sprintf("; did you mean %q?", hint)
	}
	return fmt.Errorf("%s", msg)
}

// Validate reports the first problem with the spec. It does not need the
// network size; size-dependent checks (hot indices, mix_k) happen when
// sources and patterns are built.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Trace != "" {
		if s.Process != "" || s.Mix != "" || s.Pattern != "" {
			return fmt.Errorf("workload: trace %q cannot be combined with process/mix/pattern fields", s.Trace)
		}
		// The path ends a cell's cache key, whose fields are separated by
		// spaces: a path ending in a space and the bounds field would
		// otherwise forge the key of the shorter path's bounds-carrying
		// cell.
		if strings.IndexFunc(s.Trace, func(r rune) bool { return unicode.IsSpace(r) || unicode.IsControl(r) }) >= 0 {
			return fmt.Errorf("workload: trace path %q contains whitespace or a control character", s.Trace)
		}
		return nil
	}
	switch s.Process {
	case "", ProcessPoisson:
		if s.Shape != 0 || s.OnFrac != 0 || s.BurstCycles != 0 {
			return fmt.Errorf("workload: shape/on_frac/burst_cycles set without a matching process")
		}
	case ProcessGamma, ProcessWeibull:
		if s.Shape <= 0 || math.IsNaN(s.Shape) {
			return fmt.Errorf("workload: %s process needs shape > 0, got %v", s.Process, s.Shape)
		}
		if s.OnFrac != 0 || s.BurstCycles != 0 {
			return fmt.Errorf("workload: on_frac/burst_cycles only apply to the mmpp process")
		}
	case ProcessMMPP:
		if s.OnFrac <= 0 || s.OnFrac > 1 || math.IsNaN(s.OnFrac) {
			return fmt.Errorf("workload: mmpp on_frac must be in (0, 1], got %v", s.OnFrac)
		}
		if s.BurstCycles <= 0 || math.IsNaN(s.BurstCycles) {
			return fmt.Errorf("workload: mmpp burst_cycles must be > 0, got %v", s.BurstCycles)
		}
		if s.Shape != 0 {
			return fmt.Errorf("workload: shape only applies to gamma/weibull processes")
		}
	default:
		return badEnum("process", s.Process,
			[]string{ProcessPoisson, ProcessGamma, ProcessWeibull, ProcessMMPP})
	}
	switch s.Mix {
	case "", MixUniform:
		if s.RampRatio != 0 || s.MixK != 0 || s.MixFrac != 0 {
			return fmt.Errorf("workload: ramp_ratio/mix_k/mix_frac set without a matching mix")
		}
	case MixRamp:
		if s.RampRatio <= 0 || math.IsNaN(s.RampRatio) {
			return fmt.Errorf("workload: ramp mix needs ramp_ratio > 0, got %v", s.RampRatio)
		}
		if s.MixK != 0 || s.MixFrac != 0 {
			return fmt.Errorf("workload: mix_k/mix_frac only apply to the topk mix")
		}
	case MixTopK:
		if s.MixK <= 0 {
			return fmt.Errorf("workload: topk mix needs mix_k > 0, got %d", s.MixK)
		}
		if s.MixFrac <= 0 || s.MixFrac >= 1 || math.IsNaN(s.MixFrac) {
			return fmt.Errorf("workload: topk mix needs mix_frac in (0, 1), got %v", s.MixFrac)
		}
		if s.RampRatio != 0 {
			return fmt.Errorf("workload: ramp_ratio only applies to the ramp mix")
		}
	default:
		return badEnum("mix", s.Mix, []string{MixUniform, MixRamp, MixTopK})
	}
	switch s.Pattern {
	case "", PatternUniform, PatternBitComplement, PatternTranspose:
		if len(s.Hot) != 0 || s.HotFrac != 0 || s.Decay != 0 {
			return fmt.Errorf("workload: hot/hot_frac/decay set without a matching pattern")
		}
	case PatternHotspot:
		if s.HotFrac <= 0 || s.HotFrac > 1 || math.IsNaN(s.HotFrac) {
			return fmt.Errorf("workload: hotspot pattern needs hot_frac in (0, 1], got %v", s.HotFrac)
		}
		for _, h := range s.Hot {
			if h < 0 {
				return fmt.Errorf("workload: negative hotspot target %d", h)
			}
		}
		if s.Decay != 0 {
			return fmt.Errorf("workload: decay only applies to the locality pattern")
		}
	case PatternLocality:
		if s.Decay <= 0 || s.Decay >= 1 || math.IsNaN(s.Decay) {
			return fmt.Errorf("workload: locality pattern needs decay in (0, 1), got %v", s.Decay)
		}
		if len(s.Hot) != 0 || s.HotFrac != 0 {
			return fmt.Errorf("workload: hot/hot_frac only apply to the hotspot pattern")
		}
	default:
		return badEnum("pattern", s.Pattern, []string{
			PatternUniform, PatternHotspot, PatternLocality,
			PatternBitComplement, PatternTranspose})
	}
	return nil
}

// fillRates spreads the mean per-source rate lambda0 over the sources,
// one rate per element of rates, according to the mix. Every mix is
// mean-preserving: the rates average to lambda0 exactly, so workloads
// compare at equal offered load.
func (s *Spec) fillRates(rates []float64, lambda0 float64) error {
	if lambda0 < 0 || math.IsNaN(lambda0) {
		return fmt.Errorf("workload: negative or NaN mean rate %v", lambda0)
	}
	n := len(rates)
	mix := MixUniform
	if s != nil && s.Mix != "" {
		mix = s.Mix
	}
	switch mix {
	case MixUniform:
		for p := range rates {
			rates[p] = lambda0
		}
	case MixRamp:
		if n == 1 {
			rates[0] = lambda0
			break
		}
		rho := s.RampRatio
		for p := range rates {
			// Linear in p with rates[n-1]/rates[0] = rho, mean lambda0.
			rates[p] = lambda0 * (1 + (rho-1)*float64(p)/float64(n-1)) * 2 / (1 + rho)
		}
	case MixTopK:
		k := s.MixK
		if k >= n {
			return fmt.Errorf("workload: topk mix_k %d must be < processor count %d", k, n)
		}
		hot := lambda0 * float64(n) * s.MixFrac / float64(k)
		cold := lambda0 * float64(n) * (1 - s.MixFrac) / float64(n-k)
		for p := range rates {
			if p < k {
				rates[p] = hot
			} else {
				rates[p] = cold
			}
		}
	default:
		return badEnum("mix", mix, []string{MixUniform, MixRamp, MixTopK})
	}
	return nil
}

// SourceSlab is the storage behind one network's arrival sources: the
// rate vector, the interface column handed to the engine, and one value
// slab per process kind that the column points into. The zero value is
// ready; Spec.Sources overwrites it and keeps its capacity, so building n
// sources costs a handful of allocations the first time and none after.
type SourceSlab struct {
	out     []traffic.Source
	rates   []float64
	poisson []traffic.PoissonSource
	gamma   []traffic.GammaSource
	weibull []traffic.WeibullSource
	mmpp    []traffic.MMPPSource
}

// sized returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fillSources initialises one slab element per processor and points the
// interface column at it.
func fillSources[T any, P interface {
	*T
	traffic.Source
}](slab []T, out []traffic.Source, init func(src *T, p int) error) ([]T, error) {
	slab = sized(slab, len(out))
	for p := range out {
		if err := init(&slab[p], p); err != nil {
			return slab, err
		}
		out[p] = P(&slab[p])
	}
	return slab, nil
}

// Sources builds the per-processor arrival sources for mean rate
// lambda0 in slab, pulling each source's RNG stream from rng(p). The
// returned column points into slab and is valid until slab's next use.
// The default spec reproduces exactly the pre-workload engine's sources:
// one PoissonSource per processor on stream rng(p), consumed in
// processor order.
func (s *Spec) Sources(slab *SourceSlab, n int, lambda0 float64, rng func(p int) *traffic.RNG) ([]traffic.Source, error) {
	if s != nil && s.Trace != "" {
		return nil, fmt.Errorf("workload: trace workloads build sources via Trace.Sources")
	}
	slab.rates = sized(slab.rates, n)
	rates := slab.rates
	if err := s.fillRates(rates, lambda0); err != nil {
		return nil, err
	}
	proc := ProcessPoisson
	if s != nil && s.Process != "" {
		proc = s.Process
	}
	slab.out = sized(slab.out, n)
	out := slab.out
	var err error
	switch proc {
	case ProcessPoisson:
		slab.poisson, err = fillSources(slab.poisson, out, func(src *traffic.PoissonSource, p int) error {
			return src.Init(rates[p], rng(p))
		})
	case ProcessGamma:
		slab.gamma, err = fillSources(slab.gamma, out, func(src *traffic.GammaSource, p int) error {
			return src.Init(rates[p], s.Shape, rng(p))
		})
	case ProcessWeibull:
		slab.weibull, err = fillSources(slab.weibull, out, func(src *traffic.WeibullSource, p int) error {
			return src.Init(rates[p], s.Shape, rng(p))
		})
	case ProcessMMPP:
		slab.mmpp, err = fillSources(slab.mmpp, out, func(src *traffic.MMPPSource, p int) error {
			return src.Init(rates[p], s.OnFrac, s.BurstCycles, rng(p))
		})
	default:
		err = badEnum("process", proc,
			[]string{ProcessPoisson, ProcessGamma, ProcessWeibull, ProcessMMPP})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BuildPattern builds the destination pattern for n processors; dist
// measures routing distance in channels (used by locality) and may be
// nil for other patterns.
func (s *Spec) BuildPattern(n int, dist func(a, b int) int) (traffic.Pattern, error) {
	pat := PatternUniform
	if s != nil && s.Pattern != "" {
		pat = s.Pattern
	}
	switch pat {
	case PatternUniform:
		return traffic.Uniform{}, nil
	case PatternHotspot:
		hot := s.hotSet()
		for _, h := range hot {
			if h >= n {
				return nil, fmt.Errorf("workload: hotspot target %d out of range for %d processors", h, n)
			}
		}
		return traffic.MultiHotspot{Hot: hot, Fraction: s.HotFrac}, nil
	case PatternLocality:
		if dist == nil {
			return nil, fmt.Errorf("workload: locality pattern needs a network distance function")
		}
		return traffic.NewLocality(n, dist, s.Decay)
	case PatternBitComplement:
		if n&(n-1) != 0 || n < 2 {
			return nil, fmt.Errorf("workload: bitcomplement needs a power-of-two processor count, got %d", n)
		}
		return traffic.BitComplement{}, nil
	case PatternTranspose:
		if r := traffic.Isqrt(n); r*r != n {
			return nil, fmt.Errorf("workload: transpose needs a square processor count, got %d", n)
		}
		return traffic.Transpose{}, nil
	default:
		return nil, badEnum("pattern", pat, []string{
			PatternUniform, PatternHotspot, PatternLocality,
			PatternBitComplement, PatternTranspose})
	}
}
