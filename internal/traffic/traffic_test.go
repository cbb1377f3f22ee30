package traffic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewRNG(54321)
	same := 0
	a = NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	s1 := parent.Split(1)
	s2 := parent.Split(2)
	s1again := parent.Split(1)
	eq, diff := 0, 0
	for i := 0; i < 100; i++ {
		v1, v2 := s1.Uint64(), s2.Uint64()
		if v1 == v2 {
			eq++
		}
		if v1 != s1again.Uint64() {
			diff++
		}
	}
	if eq > 2 {
		t.Errorf("split streams overlap: %d/100 equal", eq)
	}
	if diff != 0 {
		t.Errorf("same split id should reproduce the stream; %d mismatches", diff)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 50; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 45 {
		t.Errorf("zero-seeded RNG looks degenerate: %d distinct of 50", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const rate = 0.25
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05*(1/rate) {
		t.Errorf("Exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Exp(0)
}

// mustPoisson builds a Poisson source, failing the test on a bad rate.
func mustPoisson(t *testing.T, rate float64, rng *RNG) *PoissonSource {
	t.Helper()
	src, err := newPoisson(rate, rng)
	if err != nil {
		t.Fatalf("newPoisson(%v): %v", rate, err)
	}
	return src
}

func TestPoissonSourceRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := newPoisson(rate, NewRNG(1)); err == nil {
			t.Errorf("newPoisson(%v): expected error", rate)
		}
	}
}

func TestPoissonSourceInterarrivalMean(t *testing.T) {
	rng := NewRNG(11)
	const rate = 0.02
	src := mustPoisson(t, rate, rng)
	var count int
	const horizon = 1_000_000.0
	for {
		_, ok := src.PopBefore(horizon)
		if !ok {
			break
		}
		count++
	}
	got := float64(count) / horizon
	if math.Abs(got-rate) > 0.03*rate {
		t.Errorf("empirical rate %v, want ~%v", got, rate)
	}
}

func TestPoissonSourceOrdering(t *testing.T) {
	src := mustPoisson(t, 0.5, NewRNG(3))
	prev := -1.0
	for i := 0; i < 1000; i++ {
		tt, ok := src.PopBefore(math.Inf(1))
		if !ok {
			t.Fatal("infinite horizon must always pop")
		}
		if tt <= prev {
			t.Fatalf("arrival times must be strictly increasing: %v after %v", tt, prev)
		}
		prev = tt
	}
}

func TestPoissonSourceZeroRate(t *testing.T) {
	src := mustPoisson(t, 0, NewRNG(1))
	if _, ok := src.PopBefore(1e12); ok {
		t.Error("zero-rate source must never fire")
	}
	if !math.IsInf(src.Peek(), 1) {
		t.Error("zero-rate Peek should be +Inf")
	}
	if src.Rate() != 0 {
		t.Error("Rate() mismatch")
	}
}

func TestPoissonSourcePopBeforeLimit(t *testing.T) {
	src := mustPoisson(t, 1.0, NewRNG(8))
	first := src.Peek()
	if _, ok := src.PopBefore(first); ok {
		t.Error("PopBefore(limit == next) must not pop (strict inequality)")
	}
	got, ok := src.PopBefore(first + 1e-9)
	if !ok || got != first {
		t.Errorf("PopBefore just past next: got %v ok=%v, want %v true", got, ok, first)
	}
}

func TestUniformPatternExcludesSelfAndCovers(t *testing.T) {
	rng := NewRNG(21)
	const n = 16
	seen := make([]bool, n)
	for i := 0; i < 5000; i++ {
		d := Uniform{}.Dest(3, n, rng)
		if d == 3 {
			t.Fatal("uniform pattern returned the source")
		}
		if d < 0 || d >= n {
			t.Fatalf("destination out of range: %d", d)
		}
		seen[d] = true
	}
	for i, s := range seen {
		if i != 3 && !s {
			t.Errorf("destination %d never chosen", i)
		}
	}
}

func TestUniformPatternIsUnbiased(t *testing.T) {
	rng := NewRNG(77)
	const n = 8
	counts := make([]int, n)
	const trials = 70000
	for i := 0; i < trials; i++ {
		counts[Uniform{}.Dest(0, n, rng)]++
	}
	want := float64(trials) / float64(n-1)
	for d := 1; d < n; d++ {
		if math.Abs(float64(counts[d])-want) > 0.1*want {
			t.Errorf("destination %d count %d deviates from %v", d, counts[d], want)
		}
	}
}

func TestHotspotPattern(t *testing.T) {
	rng := NewRNG(31)
	h := Hotspot{Hot: 5, Fraction: 0.5}
	hot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if h.Dest(0, 16, rng) == 5 {
			hot++
		}
	}
	frac := float64(hot) / trials
	// 50% direct plus 1/15 of the uniform remainder ~ 0.533.
	want := 0.5 + 0.5/15
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("hotspot fraction = %v, want ~%v", frac, want)
	}
	if h.Name() == "" {
		t.Error("empty name")
	}
}

func TestBitComplement(t *testing.T) {
	if d := (BitComplement{}).Dest(0, 16, nil); d != 15 {
		t.Errorf("complement of 0 = %d, want 15", d)
	}
	if d := (BitComplement{}).Dest(5, 16, nil); d != 10 {
		t.Errorf("complement of 5 = %d, want 10", d)
	}
	// Involution property.
	f := func(srcRaw uint8) bool {
		src := int(srcRaw) % 64
		d := (BitComplement{}).Dest(src, 64, nil)
		return (BitComplement{}).Dest(d, 64, nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTranspose(t *testing.T) {
	// 4x4 grid: processor 1 = (0,1) -> (1,0) = 4.
	if d := (Transpose{}).Dest(1, 16, nil); d != 4 {
		t.Errorf("transpose of 1 = %d, want 4", d)
	}
	// Diagonal is a fixed point.
	if d := (Transpose{}).Dest(5, 16, nil); d != 5 {
		t.Errorf("transpose of 5 = %d, want 5", d)
	}
	f := func(srcRaw uint8) bool {
		src := int(srcRaw) % 16
		d := (Transpose{}).Dest(src, 16, nil)
		return (Transpose{}).Dest(d, 16, nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("uniform n=1", func() { Uniform{}.Dest(0, 1, NewRNG(1)) })
	mustPanic("bitcomplement non-pow2", func() { BitComplement{}.Dest(0, 12, nil) })
	mustPanic("transpose non-square", func() { Transpose{}.Dest(0, 12, nil) })
	mustPanic("Intn 0", func() { NewRNG(1).Intn(0) })
}
