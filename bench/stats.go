package main

import (
	"math"
	"sort"
	"time"
)

// row is one reported metric: the median of its samples with quartiles
// and the sample count. A value measured once has N = 1 and equal
// quartiles.
type row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces samples to median and quartiles, computed the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so spreads printed here match the ones the driver derives.
func summarize(samples []float64) (median, q1, q3 float64) {
	n := len(samples)
	if n == 0 {
		nan := math.NaN()
		return nan, nan, nan
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(2), q(1), q(3)
}

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func newRow(def metricDef, samples []float64) row {
	med, q1, q3 := summarize(samples)
	return row{Name: def.name, Unit: def.unit, Median: med, Q1: q1, Q3: q3, N: len(samples)}
}

// interval is a half-open stretch of time in nanoseconds on the
// process's monotonic clock (see since).
type interval struct{ start, end int64 }

// epoch anchors interval timestamps; only differences matter.
var epoch = time.Now()

func since() int64 { return int64(time.Since(epoch)) }

// unionLen returns the total length covered by the intervals, clipped
// to [lo, hi). It sorts ivs in place.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// timeOp runs f n times per repetition and returns the per-call
// nanoseconds of every repetition, for summarize.
func timeOp(reps, n int, f func(i int)) []float64 {
	out := make([]float64, reps)
	for r := range out {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		out[r] = float64(time.Since(start)) / float64(n)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
