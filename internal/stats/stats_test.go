package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamBasics(t *testing.T) {
	var s Stream
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) {
		t.Error("empty stream should report NaN moments")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if got, want := s.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	// Population variance is 4; sample variance = 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestStreamSingleObservation(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.Mean() != 3.5 {
		t.Errorf("Mean = %v, want 3.5", s.Mean())
	}
	if !math.IsNaN(s.Variance()) {
		t.Errorf("Variance of single obs = %v, want NaN", s.Variance())
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 2
		var whole, a, b Stream
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()*10 + 5
			whole.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-9 &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamMergeEmptyCases(t *testing.T) {
	var a, b Stream
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(&b) // merging empty is a no-op
	if a != before {
		t.Error("merging an empty stream changed the receiver")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Errorf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestBatchMeansMeanAndCI(t *testing.T) {
	bm := NewBatchMeans(100)
	rng := rand.New(rand.NewSource(42))
	const trueMean = 50.0
	for i := 0; i < 100_000; i++ {
		bm.Add(trueMean + rng.NormFloat64()*5)
	}
	if bm.Batches() != 1000 {
		t.Fatalf("Batches = %d, want 1000", bm.Batches())
	}
	hw := bm.HalfWidth(0.95)
	if math.IsNaN(hw) || hw <= 0 {
		t.Fatalf("HalfWidth = %v", hw)
	}
	if math.Abs(bm.Mean()-trueMean) > 3*hw {
		t.Errorf("mean %v outside 3x CI of %v (hw=%v)", bm.Mean(), trueMean, hw)
	}
	// For iid normal data with sd=5, se of mean over 1e5 obs ~ 0.0158;
	// the CI half-width should be in the right ballpark, not wildly off.
	if hw > 0.1 {
		t.Errorf("HalfWidth = %v, implausibly wide", hw)
	}
}

func TestBatchMeansTooFewBatches(t *testing.T) {
	bm := NewBatchMeans(1000)
	for i := 0; i < 500; i++ {
		bm.Add(1)
	}
	if !math.IsNaN(bm.HalfWidth(0.95)) {
		t.Error("HalfWidth with <2 batches should be NaN")
	}
	if bm.Mean() != 1 || bm.Min() != 1 || bm.Max() != 1 {
		t.Errorf("Mean, Min, Max = %v, %v, %v; want 1", bm.Mean(), bm.Min(), bm.Max())
	}
}

func TestTQuantile(t *testing.T) {
	// df=1, 95%: 12.706; large df approaches 1.96.
	if got := tQuantile(0.95, 1); math.Abs(got-12.706) > 1e-9 {
		t.Errorf("t(0.95,1) = %v", got)
	}
	if got := tQuantile(0.95, 1000); math.Abs(got-1.960) > 1e-9 {
		t.Errorf("t(0.95,1000) = %v", got)
	}
	if got := tQuantile(0.99, 5); math.Abs(got-4.032) > 1e-9 {
		t.Errorf("t(0.99,5) = %v", got)
	}
	if !math.IsNaN(tQuantile(0.95, 0)) {
		t.Error("t with df=0 should be NaN")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(-5)
	h.Add(150)
	if h.Total() != 102 {
		t.Fatalf("Total = %d, want 102", h.Total())
	}
	for i := 0; i < 10; i++ {
		if h.Count(i) != 10 {
			t.Errorf("bin %d = %d, want 10", i, h.Count(i))
		}
	}
	if h.underflow != 1 || h.overflow != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", h.underflow, h.overflow)
	}
	// Median of uniform 0..99 ~ 50 within a bin width.
	if q := h.Quantile(0.5); math.Abs(q-50) > 10 {
		t.Errorf("median = %v, want ~50", q)
	}
	if len(h.bins) != 10 {
		t.Errorf("%d bins", len(h.bins))
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0)                     // exactly lo -> bin 0
	h.Add(10)                    // exactly hi -> overflow
	h.Add(math.Nextafter(10, 0)) // just under hi -> last bin
	if h.Count(0) != 1 {
		t.Errorf("bin0 = %d, want 1", h.Count(0))
	}
	if h.overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.overflow)
	}
	if h.Count(9) != 1 {
		t.Errorf("last bin = %d, want 1", h.Count(9))
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nbins", func() { NewHistogram(0, 1, 0) })
	mustPanic("range", func() { NewHistogram(1, 1, 4) })
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(1)
	h.Add(3)
	h.Add(-1)
	h.Add(9)
	out := h.Render(20)
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"#", "underflow: 1", "overflow: 1"} {
		if !containsStr(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Default width path.
	if h.Render(0) == "" {
		t.Error("render with width 0 should use a default")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestQuantileEmptyAndExtremes(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want lo", q)
	}
	h.Add(-1)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("all-underflow quantile = %v, want lo", q)
	}
}
