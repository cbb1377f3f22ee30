package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-width bin histogram over [Lo, Hi) with overflow and
// underflow counters. It is used for latency distributions in the simulator
// reports.
type Histogram struct {
	lo, hi    float64
	binWidth  float64
	bins      []int64
	underflow int64
	overflow  int64
	total     int64
}

// NewHistogram creates a histogram with nbins equal-width bins covering
// [lo, hi). Panics if nbins < 1 or hi <= lo (programmer error in experiment
// setup, not runtime data).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		panic("stats: NewHistogram nbins < 1")
	}
	if hi <= lo {
		panic("stats: NewHistogram hi <= lo")
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		binWidth: (hi - lo) / float64(nbins),
		bins:     make([]int64, nbins),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		h.overflow++
	default:
		i := int((x - h.lo) / h.binWidth)
		if i >= len(h.bins) { // guard rounding at the upper edge
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Total returns the number of observations, including under/overflow.
func (h *Histogram) Total() int64 { return h.total }

// Merge folds other into h bin by bin. The histograms must have identical
// bounds and bin counts (they do when they come from replicas of one
// simulation config); anything else is a programmer error and panics.
func (h *Histogram) Merge(other *Histogram) {
	if h.lo != other.lo || h.hi != other.hi || len(h.bins) != len(other.bins) {
		panic("stats: merging histograms with different geometry")
	}
	for i, c := range other.bins {
		h.bins[i] += c
	}
	h.underflow += other.underflow
	h.overflow += other.overflow
	h.total += other.total
}

// Count returns the count of bin i.
func (h *Histogram) Count(i int) int64 { return h.bins[i] }

// Quantile returns an estimate of the q-quantile (0 < q < 1) by linear
// interpolation within bins; observations in the under/overflow bins pin
// the estimate to the range boundary. Returns the lower bound for empty
// histograms.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return h.lo
	}
	target := q * float64(h.total)
	cum := float64(h.underflow)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.binWidth
		}
		cum = next
	}
	return h.hi
}

// Render draws an ASCII bar chart with the given maximum bar width.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	var peak int64
	for _, c := range h.bins {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.bins {
		lo := h.lo + float64(i)*h.binWidth
		bar := 0
		if peak > 0 {
			bar = int(float64(c) / float64(peak) * float64(width))
		}
		fmt.Fprintf(&b, "%10.1f | %-*s %d\n", lo, width, strings.Repeat("#", bar), c)
	}
	if h.underflow > 0 {
		fmt.Fprintf(&b, "underflow: %d\n", h.underflow)
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", h.overflow)
	}
	return b.String()
}
