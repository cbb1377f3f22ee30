// Package solve brackets and bisects roots (GrowToUnstable,
// BisectContext, BisectBracket) for the saturation condition (paper
// Eq. 26) and the capacity planner. Cyclic channel graphs are solved in
// package core.
package solve

import (
	"context"
	"errors"
	"math"
)

// ErrNoBracket is returned when a root is not bracketed by the interval.
var ErrNoBracket = errors.New("solve: interval does not bracket a root")

// BisectContext finds x in [lo, hi] with f(x) = 0 to within xtol,
// assuming f is monotone enough that f(lo) and f(hi) have opposite signs.
// +Inf counts as positive and -Inf as negative; NaN is treated as +Inf,
// matching the saturation use case where the model is undefined beyond
// the stable region and the objective grows without bound as it is
// approached. The context is checked before every objective evaluation,
// so a search whose objective is expensive (a capacity planner probing a
// remote Evaluator per call) stops promptly — mid-solve, not at the next
// bracket — and returns the context's error.
func BisectContext(ctx context.Context, f func(float64) float64, lo, hi, xtol float64, maxIter int) (float64, error) {
	flo, err := evalAt(ctx, f, lo)
	if err != nil {
		return 0, err
	}
	fhi, err := evalAt(ctx, f, hi)
	if err != nil {
		return 0, err
	}
	return bisect(ctx, f, lo, hi, flo, fhi, xtol, maxIter)
}

// BisectBracket is BisectContext, without cancellation, over a bracket
// whose ends the caller has already evaluated, flo = f(lo) and
// fhi = f(hi) — as GrowToUnstable's caller has — so neither end is
// evaluated again. The result is BisectContext's, bit for bit.
func BisectBracket(f func(float64) float64, lo, hi, flo, fhi, xtol float64, maxIter int) (float64, error) {
	return bisect(context.Background(), f, lo, hi, nanToInf(flo), nanToInf(fhi), xtol, maxIter)
}

// evalAt evaluates f at x unless ctx is done.
func evalAt(ctx context.Context, f func(float64) float64, x float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return nanToInf(f(x)), nil
}

// nanToInf counts NaN as +Inf: past the stable region.
func nanToInf(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// bisect halves [lo, hi], whose ends evaluate to flo and fhi, until it
// is narrower than xtol.
func bisect(ctx context.Context, f func(float64) float64, lo, hi, flo, fhi, xtol float64, maxIter int) (float64, error) {
	if maxIter <= 0 {
		maxIter = 200
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < maxIter && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		fm, err := evalAt(ctx, f, mid)
		if err != nil {
			return 0, err
		}
		if fm == 0 {
			return mid, nil
		}
		if (fm > 0) == (fhi > 0) {
			hi, fhi = mid, fm
		} else {
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, nil
}

// GrowToUnstable doubles x from start until pred(x) reports false (e.g.
// "model is stable at load x"), then returns the last stable and first
// unstable values. It gives up after maxDoublings and returns ok = false if
// pred never fails (no saturation in range).
func GrowToUnstable(pred func(float64) bool, start float64, maxDoublings int) (stable, unstable float64, ok bool) {
	if maxDoublings <= 0 {
		maxDoublings = 64
	}
	x := start
	if !pred(x) {
		return 0, x, true
	}
	for i := 0; i < maxDoublings; i++ {
		nxt := x * 2
		if !pred(nxt) {
			return x, nxt, true
		}
		x = nxt
	}
	return x, 0, false
}
