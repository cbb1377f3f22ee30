package traffic

import (
	"fmt"
	"math"
)

// Pattern selects a destination processor for a message originating at a
// given source processor. Implementations must be deterministic given the
// RNG stream.
type Pattern interface {
	// Dest returns the destination for a message from src among n
	// processors. Implementations must never return src for patterns where
	// the paper excludes self-traffic (uniform).
	Dest(src, n int, rng *RNG) int
}

// Uniform is the paper's workload: destinations uniformly random over all
// other processors (self-traffic excluded, as in the paper's rate analysis
// where a message has 4^n − 1 possible destinations).
type Uniform struct{}

// Dest implements Pattern.
func (Uniform) Dest(src, n int, rng *RNG) int {
	if n < 2 {
		panic("traffic: Uniform needs at least 2 processors")
	}
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// MultiHotspot sends a fraction of traffic split evenly over a set of
// hot processors, the remainder uniformly over all other processors.
// When the hot draw lands on the source itself it falls back to the
// uniform branch, so the exact destination distribution from src is:
//
//	P(d) = Fraction/K·[d hot, d≠src] + (1 − Fraction·h/K)/(n−1)
//
// where K = len(Hot) and h counts hot targets other than src.
type MultiHotspot struct {
	// Hot lists the hot destination processors.
	Hot []int
	// Fraction in [0,1] of messages directed at the hot set.
	Fraction float64
}

// Dest implements Pattern.
func (h MultiHotspot) Dest(src, n int, rng *RNG) int {
	if len(h.Hot) > 0 && h.Fraction > 0 && rng.Float64() < h.Fraction {
		d := h.Hot[rng.Intn(len(h.Hot))]
		if d != src {
			return d
		}
	}
	return Uniform{}.Dest(src, n, rng)
}

// Locality weights destinations by decay^distance(src, dst): smaller
// decay concentrates traffic on near neighbours, decay → 1 approaches
// uniform. Distances come from the network (channels on the routing
// path), so on the fat tree "near" means "under the same low switch".
type Locality struct {
	// cdf[src] is the cumulative destination distribution for src over
	// all n destinations (the src entry has zero mass).
	cdf [][]float64
}

// NewLocality builds the per-source destination CDFs for n processors
// under the given distance function and decay in (0, 1].
func NewLocality(n int, dist func(a, b int) int, decay float64) (*Locality, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: locality needs at least 2 processors")
	}
	if decay <= 0 || decay > 1 || math.IsNaN(decay) {
		return nil, fmt.Errorf("traffic: locality decay must be in (0, 1], got %v", decay)
	}
	l := &Locality{cdf: make([][]float64, n)}
	for s := 0; s < n; s++ {
		row := make([]float64, n)
		sum := 0.0
		for d := 0; d < n; d++ {
			if d != s {
				sum += math.Pow(decay, float64(dist(s, d)))
			}
			row[d] = sum
		}
		for d := range row {
			row[d] /= sum
		}
		l.cdf[s] = row
	}
	return l, nil
}

// Dest implements Pattern by inverse-CDF sampling.
func (l *Locality) Dest(src, n int, rng *RNG) int {
	row := l.cdf[src]
	u := rng.Float64()
	lo, hi := 0, len(row)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BitComplement sends each message from src to ^src (mod n). n must be a
// power of two. A classic adversarial permutation for indirect networks.
type BitComplement struct{}

// Dest implements Pattern.
func (BitComplement) Dest(src, n int, _ *RNG) int {
	if n&(n-1) != 0 || n < 2 {
		panic("traffic: BitComplement needs a power-of-two processor count")
	}
	return (n - 1) ^ src
}

// Transpose interprets the processor index as a 2D coordinate in a square
// grid and swaps the coordinates. n must be a perfect square.
type Transpose struct{}

// Dest implements Pattern.
func (Transpose) Dest(src, n int, _ *RNG) int {
	side := Isqrt(n)
	if side*side != n {
		panic("traffic: Transpose needs a square processor count")
	}
	r, c := src/side, src%side
	return c*side + r
}

// Isqrt returns ⌊√n⌋ (0 for negative n).
func Isqrt(n int) int {
	if n < 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
