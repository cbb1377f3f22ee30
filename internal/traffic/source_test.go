package traffic

import (
	"math"
	"testing"
)

// drainInterarrivals pops the source until horizon and returns the
// interarrival gaps.
func drainInterarrivals(t *testing.T, src Source, horizon float64) []float64 {
	t.Helper()
	var gaps []float64
	prev := 0.0
	for {
		a, ok := src.PopBefore(horizon)
		if !ok {
			break
		}
		if a < prev {
			t.Fatalf("arrivals out of order: %v after %v", a, prev)
		}
		gaps = append(gaps, a-prev)
		prev = a
	}
	return gaps
}

// empiricalSCV returns mean and squared coefficient of variation of xs.
func empiricalSCV(xs []float64) (mean, scv float64) {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean = sum / n
	m2 := sumSq / n
	return mean, m2/(mean*mean) - 1
}

func TestGammaSourceMeanAndSCV(t *testing.T) {
	for _, shape := range []float64{0.5, 2, 4} {
		src, err := newGamma(0.1, shape, NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		gaps := drainInterarrivals(t, src, 500_000)
		mean, scv := empiricalSCV(gaps)
		if math.Abs(mean-10) > 0.5 {
			t.Errorf("shape %v: mean gap %v, want ~10", shape, mean)
		}
		want := 1 / shape
		if math.Abs(scv-want) > 0.15*want {
			t.Errorf("shape %v: SCV %v, want ~%v", shape, scv, want)
		}
	}
}

func TestWeibullSourceMeanAndSCV(t *testing.T) {
	for _, shape := range []float64{0.7, 1.5} {
		src, err := newWeibull(0.1, shape, NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		gaps := drainInterarrivals(t, src, 500_000)
		mean, scv := empiricalSCV(gaps)
		if math.Abs(mean-10) > 0.5 {
			t.Errorf("shape %v: mean gap %v, want ~10", shape, mean)
		}
		want := weibullSCV(shape)
		if math.Abs(scv-want) > 0.2*want {
			t.Errorf("shape %v: SCV %v, want ~%v", shape, scv, want)
		}
	}
}

func TestWeibullSCVShapeOneIsPoisson(t *testing.T) {
	if got := weibullSCV(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("weibullSCV(1) = %v, want 1", got)
	}
}

func TestMMPPSourceMeanRateAndBurstiness(t *testing.T) {
	const rate, onFrac, burst = 0.05, 0.25, 200.0
	src, err := newMMPP(rate, onFrac, burst, NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2_000_000.0
	gaps := drainInterarrivals(t, src, horizon)
	got := float64(len(gaps)) / horizon
	if math.Abs(got-rate) > 0.05*rate {
		t.Errorf("mean rate %v, want ~%v", got, rate)
	}
	_, scv := empiricalSCV(gaps)
	want := ippSCV(rate, onFrac, burst)
	if want <= 1.5 {
		t.Fatalf("ippSCV = %v: expected a clearly bursty process", want)
	}
	if math.Abs(scv-want) > 0.25*want {
		t.Errorf("SCV %v, want ~%v", scv, want)
	}
}

func TestMMPPSourceFullOnIsPoisson(t *testing.T) {
	src, err := newMMPP(0.05, 1, 200, NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	gaps := drainInterarrivals(t, src, 1_000_000)
	_, scv := empiricalSCV(gaps)
	if math.Abs(scv-1) > 0.1 {
		t.Errorf("onFrac=1 SCV %v, want ~1 (Poisson)", scv)
	}
	if got := ippSCV(0.05, 1, 200); math.Abs(got-1) > 1e-9 {
		t.Errorf("ippSCV(onFrac=1) = %v, want 1", got)
	}
}

func TestSourceConstructorsRejectBadParams(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"gamma negative rate", errOf(newGamma(-1, 2, NewRNG(1)))},
		{"gamma zero shape", errOf(newGamma(0.1, 0, NewRNG(1)))},
		{"weibull NaN rate", errOf(newWeibull(math.NaN(), 1, NewRNG(1)))},
		{"weibull negative shape", errOf(newWeibull(0.1, -2, NewRNG(1)))},
		{"mmpp negative rate", errOf(newMMPP(-0.1, 0.5, 100, NewRNG(1)))},
		{"mmpp onFrac 0", errOf(newMMPP(0.1, 0, 100, NewRNG(1)))},
		{"mmpp onFrac >1", errOf(newMMPP(0.1, 1.5, 100, NewRNG(1)))},
		{"mmpp burst 0", errOf(newMMPP(0.1, 0.5, 0, NewRNG(1)))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

func TestSourcesAreDeterministic(t *testing.T) {
	build := func() []Source {
		g, _ := newGamma(0.1, 2, NewRNG(5))
		w, _ := newWeibull(0.1, 1.5, NewRNG(5))
		m, _ := newMMPP(0.1, 0.25, 100, NewRNG(5))
		return []Source{g, w, m}
	}
	a, b := build(), build()
	for i := range a {
		for j := 0; j < 1000; j++ {
			x, okA := a[i].PopBefore(1e9)
			y, okB := b[i].PopBefore(1e9)
			if okA != okB || x != y {
				t.Fatalf("source %d diverges at pop %d: %v vs %v", i, j, x, y)
			}
		}
	}
}

// The sources as the tests build them: Init into fresh storage.

func newPoisson(rate float64, rng *RNG) (*PoissonSource, error) {
	s := new(PoissonSource)
	return s, s.Init(rate, rng)
}

func newGamma(rate, shape float64, rng *RNG) (*GammaSource, error) {
	s := new(GammaSource)
	return s, s.Init(rate, shape, rng)
}

func newWeibull(rate, shape float64, rng *RNG) (*WeibullSource, error) {
	s := new(WeibullSource)
	return s, s.Init(rate, shape, rng)
}

func newMMPP(rate, onFrac, burstCycles float64, rng *RNG) (*MMPPSource, error) {
	s := new(MMPPSource)
	return s, s.Init(rate, onFrac, burstCycles, rng)
}

// weibullSCV returns the squared coefficient of variation of Weibull
// interarrivals with the given shape: Γ(1+2/k)/Γ(1+1/k)² − 1.
func weibullSCV(shape float64) float64 {
	g1 := math.Gamma(1 + 1/shape)
	return math.Gamma(1+2/shape)/(g1*g1) - 1
}

// ippSCV returns the squared coefficient of variation of the
// interarrival times of an interrupted Poisson process with mean rate
// rate, ON fraction onFrac and mean burst burstCycles. It uses the exact
// Kuczura H2 equivalence: the interarrival distribution is a mixture of
// two exponentials whose rates are the roots of
// μ² − (λ+ω1+ω2)μ + λω2 = 0.
func ippSCV(rate, onFrac, burstCycles float64) float64 {
	if onFrac >= 1 {
		return 1 // plain Poisson
	}
	lambda := rate / onFrac
	w1 := 1 / burstCycles                       // ON -> OFF
	w2 := onFrac / (burstCycles * (1 - onFrac)) // OFF -> ON
	sum := lambda + w1 + w2
	disc := math.Sqrt(sum*sum - 4*lambda*w2)
	mu1 := (sum + disc) / 2
	mu2 := (sum - disc) / 2
	p := (lambda - mu2) / (mu1 - mu2)
	m1 := p/mu1 + (1-p)/mu2
	m2 := 2*p/(mu1*mu1) + 2*(1-p)/(mu2*mu2)
	return m2/(m1*m1) - 1
}
