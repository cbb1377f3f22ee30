// Package solve provides the small numerical routines the analytical model
// needs: bracketed bisection (for the saturation condition, paper Eq. 26)
// and damped fixed-point iteration (for cyclic channel graphs such as
// k-ary n-cube instances of the general model).
package solve

import (
	"context"
	"errors"
	"math"
)

// ErrNoBracket is returned when a root is not bracketed by the interval.
var ErrNoBracket = errors.New("solve: interval does not bracket a root")

// ErrNoConvergence is returned when an iteration fails to converge within
// its budget.
var ErrNoConvergence = errors.New("solve: iteration did not converge")

// Bisect finds x in [lo, hi] with f(x) = 0 to within xtol, assuming f is
// monotone enough that f(lo) and f(hi) have opposite signs. +Inf counts as
// positive and -Inf as negative; NaN is treated as +Inf, matching the
// saturation use case where the model is undefined beyond the stable
// region and the objective grows without bound as it is approached.
func Bisect(f func(float64) float64, lo, hi, xtol float64, maxIter int) (float64, error) {
	return BisectContext(context.Background(), f, lo, hi, xtol, maxIter)
}

// BisectContext is Bisect with cancellation: the context is checked
// before every objective evaluation, so a search whose objective is
// expensive (a capacity planner probing a remote Evaluator per call)
// stops promptly — mid-solve, not at the next bracket — and returns the
// context's error.
func BisectContext(ctx context.Context, f func(float64) float64, lo, hi, xtol float64, maxIter int) (float64, error) {
	if maxIter <= 0 {
		maxIter = 200
	}
	eval := func(x float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1), nil
		}
		return v, nil
	}
	flo, err := eval(lo)
	if err != nil {
		return 0, err
	}
	fhi, err := eval(hi)
	if err != nil {
		return 0, err
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
		fm, err := eval(mid)
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

// FixedPointOptions configures FixedPointInPlace.
type FixedPointOptions struct {
	// Damping in (0, 1]: x' = (1-d)*x + d*f(x). 1 means undamped.
	Damping float64
	// Tol is the max-norm convergence tolerance on successive iterates.
	Tol float64
	// MaxIter bounds the number of iterations.
	MaxIter int
}

// DefaultFixedPointOptions are suitable for the channel-graph models.
func DefaultFixedPointOptions() FixedPointOptions {
	return FixedPointOptions{Damping: 0.5, Tol: 1e-10, MaxIter: 10_000}
}

// FixedPointInPlace iterates x <- (1-d) x + d f(x) until the max-norm
// change is below Tol, on caller-owned storage: x holds the starting point
// and is overwritten with the iterates, fx is scratch of the same length.
// If any component of f(x) is non-finite the iteration stops at once with
// ErrNoConvergence (the caller interprets this as an unstable operating
// point), leaving in x the partially updated iterate in which it
// appeared. It allocates nothing and returns the number of iterations run.
func FixedPointInPlace(f func(x, out []float64), x, fx []float64, opt FixedPointOptions) (int, error) {
	if opt.Damping <= 0 || opt.Damping > 1 {
		opt.Damping = 0.5
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10_000
	}
	for it := 0; it < opt.MaxIter; it++ {
		f(x, fx)
		var delta float64
		for i := range x {
			if math.IsNaN(fx[i]) || math.IsInf(fx[i], 0) {
				return it + 1, ErrNoConvergence
			}
			nxt := (1-opt.Damping)*x[i] + opt.Damping*fx[i]
			if d := math.Abs(nxt - x[i]); d > delta {
				delta = d
			}
			x[i] = nxt
		}
		if delta < opt.Tol {
			return it + 1, nil
		}
	}
	return opt.MaxIter, ErrNoConvergence
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
