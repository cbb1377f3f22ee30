package stats

import (
	"math"
	"testing"
)

// TestBatchMeansMergeMatchesSequential: merging two accumulators must pool
// the grand stream and the completed batches exactly as a single
// accumulator fed the concatenated sequence would — up to each part's
// trailing partial batch, which stays out of the batch statistics on both
// sides. Feeding each part a whole number of batches makes the comparison
// exact.
func TestBatchMeansMergeMatchesSequential(t *testing.T) {
	const batch = 4
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * 10
	}
	split := 24 // multiple of the batch size: no partial batch at the seam

	whole := NewBatchMeans(batch)
	for _, x := range xs {
		whole.Add(x)
	}

	a := NewBatchMeans(batch)
	b := NewBatchMeans(batch)
	for _, x := range xs[:split] {
		a.Add(x)
	}
	for _, x := range xs[split:] {
		b.Add(x)
	}
	a.Merge(b)

	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged range [%v, %v], sequential [%v, %v]", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	if a.Batches() != whole.Batches() {
		t.Errorf("merged Batches = %d, sequential %d", a.Batches(), whole.Batches())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged Mean = %v, sequential %v", a.Mean(), whole.Mean())
	}
	got, want := a.HalfWidth(0.95), whole.HalfWidth(0.95)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("merged HalfWidth = %v, sequential %v", got, want)
	}
}

// TestBatchMeansMergeKeepsPartialBatchesOut: a trailing partial batch in
// either accumulator must not leak into the pooled batch statistics.
func TestBatchMeansMergeKeepsPartialBatchesOut(t *testing.T) {
	a := NewBatchMeans(10)
	b := NewBatchMeans(10)
	for i := 0; i < 25; i++ { // 2 batches + 5 leftover
		a.Add(float64(i))
	}
	for i := 0; i < 13; i++ { // 1 batch + 3 leftover
		b.Add(100 + float64(i))
	}
	a.Merge(b)
	// The grand stream keeps every observation, partials included.
	if want := (300.0 + 13*100 + 78) / 38; math.Abs(a.Mean()-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", a.Mean(), want)
	}
	if a.Batches() != 3 {
		t.Errorf("Batches = %d, want 3 (partials excluded)", a.Batches())
	}
}

func TestBatchMeansMergePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched batch sizes must panic")
		}
	}()
	NewBatchMeans(8).Merge(NewBatchMeans(16))
}

// TestHistogramMergeMatchesSequential: bin-wise merge must equal a single
// histogram fed both sample sets, including the out-of-range counters and
// the quantile estimates derived from them.
func TestHistogramMergeMatchesSequential(t *testing.T) {
	mk := func() *Histogram { return NewHistogram(0, 100, 20) }
	whole, a, b := mk(), mk(), mk()
	for i := 0; i < 500; i++ {
		x := math.Mod(float64(i)*7.31, 120) - 10 // spills both ends
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Total() != whole.Total() {
		t.Errorf("merged Total = %d, sequential %d", a.Total(), whole.Total())
	}
	if a.underflow != whole.underflow || a.overflow != whole.overflow {
		t.Errorf("out-of-range counters diverge: %d/%d vs %d/%d",
			a.underflow, a.overflow, whole.underflow, whole.overflow)
	}
	for i := 0; i < len(whole.bins); i++ {
		if a.bins[i] != whole.bins[i] {
			t.Errorf("bin %d: merged %d, sequential %d", i, a.bins[i], whole.bins[i])
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, sequential %v", q, got, want)
		}
	}
}

func TestHistogramMergePanicsOnGeometryMismatch(t *testing.T) {
	cases := []struct {
		name string
		h    *Histogram
	}{
		{"different lo", NewHistogram(1, 100, 20)},
		{"different hi", NewHistogram(0, 200, 20)},
		{"different bins", NewHistogram(0, 100, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("geometry mismatch must panic")
				}
			}()
			NewHistogram(0, 100, 20).Merge(tc.h)
		})
	}
}
