package traffic

import (
	"math"
	"testing"
)

// TestUniformChiSquared runs a chi-squared goodness-of-fit test of the
// uniform pattern against the exact uniform-over-others distribution.
// Seed-pinned: the draw stream is deterministic, so the statistic is a
// constant and the threshold cannot flake.
func TestUniformChiSquared(t *testing.T) {
	const n, trials = 16, 60000
	rng := NewRNG(42)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[Uniform{}.Dest(3, n, rng)]++
	}
	if counts[3] != 0 {
		t.Fatalf("self-destination drawn %d times", counts[3])
	}
	expected := float64(trials) / float64(n-1)
	chi2 := 0.0
	for d, c := range counts {
		if d == 3 {
			continue
		}
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	// 14 degrees of freedom: chi2_{0.999} ≈ 36.1.
	if chi2 > 36.1 {
		t.Errorf("chi-squared = %v exceeds 36.1 (df=14, p=0.001)", chi2)
	}
}

// TestMultiHotspotExactDistribution checks the empirical destination
// distribution against the closed form: each hot target (≠ src) gets
// Fraction/K plus the uniform residue, every other non-src destination
// gets the residue alone, where the residue spreads 1 − Fraction·h/K
// over the n−1 non-src destinations (h = hot targets ≠ src; a hot draw
// landing on src falls through to uniform).
func TestMultiHotspotExactDistribution(t *testing.T) {
	const n, trials = 16, 120000
	h := MultiHotspot{Hot: []int{2, 7, 11}, Fraction: 0.45}
	for _, src := range []int{0, 7} { // src outside and inside the hot set
		rng := NewRNG(uint64(97 + src))
		counts := make([]int, n)
		for i := 0; i < trials; i++ {
			counts[h.Dest(src, n, rng)]++
		}
		hotSet := map[int]bool{2: true, 7: true, 11: true}
		hotNotSrc := 0
		for d := range hotSet {
			if d != src {
				hotNotSrc++
			}
		}
		k := float64(len(h.Hot))
		residue := (1 - h.Fraction*float64(hotNotSrc)/k) / float64(n-1)
		for d := 0; d < n; d++ {
			var want float64
			switch {
			case d == src:
				want = 0
			case hotSet[d]:
				want = h.Fraction/k + residue
			default:
				want = residue
			}
			got := float64(counts[d]) / trials
			if math.Abs(got-want) > 0.012 {
				t.Errorf("src %d dest %d: P = %v, want %v", src, d, got, want)
			}
		}
	}
}

// TestLocalityPrefersNearby checks that with a linear distance function
// closer destinations are drawn more often, in the exact decay ratio.
func TestLocalityPrefersNearby(t *testing.T) {
	const n, trials = 8, 80000
	dist := func(a, b int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d
	}
	l, err := NewLocality(n, dist, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(55)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[l.Dest(0, n, rng)]++
	}
	if counts[0] != 0 {
		t.Fatalf("self-destination drawn %d times", counts[0])
	}
	// P(dest=d | src=0) ∝ 0.5^d: each step away halves the mass.
	for d := 1; d < n-1; d++ {
		ratio := float64(counts[d+1]) / float64(counts[d])
		if math.Abs(ratio-0.5) > 0.12 {
			t.Errorf("P(%d)/P(%d) = %v, want ~0.5", d+1, d, ratio)
		}
	}
}

func TestLocalityRejectsBadDecay(t *testing.T) {
	dist := func(a, b int) int { return 1 }
	for _, decay := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewLocality(4, dist, decay); err == nil {
			t.Errorf("NewLocality(decay=%v): expected error", decay)
		}
	}
}
