package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestDefaultSpecCanonical(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.IsDefault() || nilSpec.Canonical() != "" {
		t.Error("nil spec must be the default workload")
	}
	for _, s := range []*Spec{
		{},
		{Name: "steady"},
		{Process: ProcessPoisson, Mix: MixUniform, Pattern: PatternUniform},
	} {
		if !s.IsDefault() {
			t.Errorf("%+v: expected default", s)
		}
		if got := s.Canonical(); got != "" {
			t.Errorf("%+v: Canonical = %q, want empty", s, got)
		}
		if !s.ModelApplicable() {
			t.Errorf("%+v: default workload must be model-applicable", s)
		}
	}
}

func TestCanonicalKeys(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Process: ProcessGamma, Shape: 2}, "gamma(2)/uniform/uniform"},
		{Spec{Process: ProcessWeibull, Shape: 0.7}, "weibull(0.7)/uniform/uniform"},
		{Spec{Process: ProcessMMPP, OnFrac: 0.25, BurstCycles: 200}, "mmpp(0.25,200)/uniform/uniform"},
		{Spec{Mix: MixRamp, RampRatio: 4}, "poisson/ramp(4)/uniform"},
		{Spec{Mix: MixTopK, MixK: 8, MixFrac: 0.5}, "poisson/topk(8,0.5)/uniform"},
		{Spec{Pattern: PatternHotspot, Hot: []int{3, 0, 3}, HotFrac: 0.3}, "poisson/uniform/hotspot(0+3,0.3)"},
		{Spec{Pattern: PatternLocality, Decay: 0.5}, "poisson/uniform/locality(0.5)"},
		{Spec{Trace: "out/t.ndjson"}, "trace:out/t.ndjson"},
	}
	for _, c := range cases {
		if got := c.spec.Canonical(); got != c.want {
			t.Errorf("Canonical(%+v) = %q, want %q", c.spec, got, c.want)
		}
		if c.spec.ModelApplicable() {
			t.Errorf("%q: non-default workload must not be model-applicable", c.want)
		}
	}
}

func TestCanonicalIgnoresName(t *testing.T) {
	a := Spec{Name: "a", Process: ProcessGamma, Shape: 2}
	b := Spec{Name: "b", Process: ProcessGamma, Shape: 2}
	if a.Canonical() != b.Canonical() {
		t.Error("Name must not affect the canonical key")
	}
	if a.Label() != "a" {
		t.Errorf("Label = %q, want the name", a.Label())
	}
	if (&Spec{}).Label() != "default" {
		t.Error("default label")
	}
}

func TestValidateRejectsWithSuggestion(t *testing.T) {
	cases := []struct {
		spec     Spec
		fragment string
	}{
		{Spec{Process: "gamm", Shape: 2}, `"gamma"`},
		{Spec{Process: "poison"}, `"poisson"`},
		{Spec{Mix: "topK", MixK: 2, MixFrac: 0.5}, `"topk"`},
		{Spec{Pattern: "hotspt", Hot: []int{0}, HotFrac: 0.3}, `"hotspot"`},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%+v: expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.fragment) {
			t.Errorf("%+v: error %q missing suggestion %q", c.spec, err, c.fragment)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Spec{
		{Process: ProcessGamma},                                  // missing shape
		{Process: ProcessGamma, Shape: -1},                       // negative shape
		{Process: ProcessMMPP, OnFrac: 0, BurstCycles: 100},      // on_frac out of range
		{Process: ProcessMMPP, OnFrac: 1.5, BurstCycles: 100},    // on_frac out of range
		{Process: ProcessMMPP, OnFrac: 0.5},                      // missing burst_cycles
		{Shape: 2},                                               // stray shape without gamma/weibull
		{OnFrac: 0.5},                                            // stray on_frac without mmpp
		{Mix: MixRamp},                                           // missing ramp_ratio
		{Mix: MixTopK, MixK: 0, MixFrac: 0.5},                    // missing mix_k
		{Mix: MixTopK, MixK: 4},                                  // missing mix_frac
		{RampRatio: 2},                                           // stray ramp_ratio
		{Pattern: PatternHotspot},                                // missing hot_frac
		{Pattern: PatternHotspot, HotFrac: 1.5},                  // hot_frac out of range
		{Hot: []int{1}},                                          // stray hot set
		{Pattern: PatternLocality},                               // missing decay
		{Pattern: PatternLocality, Decay: 1.5},                   // decay out of range
		{Trace: "t.ndjson", Process: ProcessGamma, Shape: 2},     // trace + process
		{Trace: "t.ndjson", Pattern: PatternHotspot, HotFrac: 1}, // trace + pattern
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", s)
		}
	}
	good := []Spec{
		{},
		{Process: ProcessGamma, Shape: 2},
		{Process: ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		{Mix: MixTopK, MixK: 4, MixFrac: 0.6},
		{Pattern: PatternHotspot, Hot: []int{1, 5}, HotFrac: 0.3},
		{Pattern: PatternLocality, Decay: 0.5},
		{Pattern: PatternBitComplement},
		{Trace: "t.ndjson"},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: unexpected error: %v", s, err)
		}
	}
}

// ratesOf is the per-source rates a spec's sources are built with.
func ratesOf(s *Spec, n int, lambda0 float64) ([]float64, error) {
	r := make([]float64, n)
	return r, s.fillRates(r, lambda0)
}

func TestRatesPreserveMean(t *testing.T) {
	const n, lambda0 = 64, 0.0125
	specs := []Spec{
		{},
		{Mix: MixRamp, RampRatio: 4},
		{Mix: MixTopK, MixK: 8, MixFrac: 0.5},
	}
	for _, s := range specs {
		rates, err := ratesOf(&s, n, lambda0)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if len(rates) != n {
			t.Fatalf("%+v: %d rates, want %d", s, len(rates), n)
		}
		sum := 0.0
		for _, r := range rates {
			if r < 0 {
				t.Fatalf("%+v: negative rate %v", s, r)
			}
			sum += r
		}
		if math.Abs(sum/float64(n)-lambda0) > 1e-12 {
			t.Errorf("%+v: mean rate %v, want %v", s, sum/float64(n), lambda0)
		}
	}
}

func TestRatesRamp(t *testing.T) {
	rates, err := ratesOf(&Spec{Mix: MixRamp, RampRatio: 4}, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := rates[7] / rates[0]; math.Abs(ratio-4) > 1e-9 {
		t.Errorf("end-to-end ratio %v, want 4", ratio)
	}
	for i := 1; i < 8; i++ {
		if rates[i] < rates[i-1] {
			t.Errorf("ramp not monotone at %d", i)
		}
	}
}

func TestRatesTopKTooLarge(t *testing.T) {
	if _, err := ratesOf(&Spec{Mix: MixTopK, MixK: 8, MixFrac: 0.5}, 8, 0.1); err == nil {
		t.Error("expected error when mix_k >= n")
	}
}

// TestSCV: a spec's sources draw interarrival gaps with the squared
// coefficient of variation (SCV) of its process — 1 for Poisson, 1/shape
// for gamma, above 1 for a bursty MMPP — over 20,000 gaps of one source.
func TestSCV(t *testing.T) {
	scv := func(s *Spec, lambda0 float64) float64 {
		t.Helper()
		srcs, err := s.Sources(new(SourceSlab), 1, lambda0, func(int) *traffic.RNG { return traffic.NewRNG(5) })
		if err != nil {
			t.Fatal(err)
		}
		const n = 20000
		var sum, sum2, prev float64
		for i := 0; i < n; i++ {
			at, ok := srcs[0].PopBefore(math.Inf(1))
			if !ok {
				t.Fatalf("%+v: source ran dry after %d arrivals", s, i)
			}
			gap := at - prev
			sum, sum2, prev = sum+gap, sum2+gap*gap, at
		}
		mean := sum / n
		return (sum2/n - mean*mean) / (mean * mean)
	}
	if got := scv(&Spec{}, 0.01); math.Abs(got-1) > 0.1 {
		t.Errorf("Poisson SCV = %v, want 1", got)
	}
	if got := scv(&Spec{Process: ProcessGamma, Shape: 4}, 0.01); math.Abs(got-0.25) > 0.03 {
		t.Errorf("Gamma(4) SCV = %v, want 0.25", got)
	}
	if burst := scv(&Spec{Process: ProcessMMPP, OnFrac: 0.25, BurstCycles: 200}, 0.05); burst <= 1 {
		t.Errorf("MMPP SCV = %v, want > 1 (bursty)", burst)
	}
}

func TestSourcesDefaultMatchesPoisson(t *testing.T) {
	// The default spec must construct exactly the historical Poisson
	// sources: same RNG stream consumption, same arrival times.
	const n, lambda0 = 8, 0.05
	master := traffic.NewRNG(1234)
	rngs := make([]traffic.RNG, n)
	for p := range rngs {
		master.SplitInto(&rngs[p], uint64(p))
	}
	var nilSpec *Spec
	got, err := nilSpec.Sources(new(SourceSlab), n, lambda0, func(p int) *traffic.RNG { return &rngs[p] })
	if err != nil {
		t.Fatal(err)
	}
	master2 := traffic.NewRNG(1234)
	for p := 0; p < n; p++ {
		want, rng := new(traffic.PoissonSource), new(traffic.RNG)
		master2.SplitInto(rng, uint64(p))
		if err := want.Init(lambda0, rng); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			a, okA := got[p].PopBefore(1e9)
			b, okB := want.PopBefore(1e9)
			if okA != okB || a != b {
				t.Fatalf("source %d pop %d: %v vs %v", p, i, a, b)
			}
		}
	}
}

func TestBuildPatternRangeChecks(t *testing.T) {
	dist := func(a, b int) int { return 1 }
	if _, err := (&Spec{Pattern: PatternHotspot, Hot: []int{99}, HotFrac: 0.3}).BuildPattern(16, dist); err == nil {
		t.Error("expected error for out-of-range hot target")
	}
	if _, err := (&Spec{Pattern: PatternBitComplement}).BuildPattern(12, dist); err == nil {
		t.Error("expected error for non-power-of-two bitcomplement")
	}
	if _, err := (&Spec{Pattern: PatternTranspose}).BuildPattern(12, dist); err == nil {
		t.Error("expected error for non-square transpose")
	}
	p, err := (&Spec{Pattern: PatternHotspot, Hot: []int{1, 3}, HotFrac: 0.4}).BuildPattern(16, dist)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := p.(traffic.MultiHotspot); !ok || len(h.Hot) != 2 || h.Fraction != 0.4 {
		t.Errorf("hotspot pattern = %#v, want MultiHotspot{Hot: [1 3], Fraction: 0.4}", p)
	}
}
