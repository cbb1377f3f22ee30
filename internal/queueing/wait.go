package queueing

import "math"

// Utilization returns the per-server utilization ρ = λ·x̄/m of an m-server
// channel offered combined arrival rate lambda with mean service time xbar.
func Utilization(m int, lambda, xbar float64) float64 {
	if m < 1 {
		return math.NaN()
	}
	return lambda * xbar / float64(m)
}

// WaitMGm returns the mean waiting time of an M/G/m queue with combined
// arrival rate lambda, mean service time xbar, and squared coefficient of
// variation cv2, in the approximation
//
//	W ≈ (1 + C²b)/2 · W_{M/M/m}
//
// which for m = 2 is algebraically identical to the Hokstad-derived formula
// the paper uses (Eq. 7):
//
//	W_{M/G/2} = λ²x̄³ / (2(4 − λ²x̄²)) · (1 + C²b)
//
// and for m = 1 is the exact Pollaczek–Khinchine M/G/1 result (Eq. 4).
//
// lambda is the rate offered to the whole group; per the published
// correction to the paper's Eq. 21/23, callers modelling a fat-tree up-link
// pair must pass 2× the per-link rate.
//
// Returns 0 when lambda == 0, +Inf when the queue is unstable (λ·x̄ ≥ m),
// and NaN on invalid input (m < 1, negative rate or service time, negative
// cv2).
func WaitMGm(m int, lambda, xbar, cv2 float64) float64 {
	if m < 1 || lambda < 0 || xbar < 0 || cv2 < 0 ||
		math.IsNaN(lambda) || math.IsNaN(xbar) || math.IsNaN(cv2) {
		return math.NaN()
	}
	if lambda == 0 || xbar == 0 {
		return 0
	}
	a := lambda * xbar // offered load in Erlangs
	if a >= float64(m) {
		return math.Inf(1)
	}
	rho := a / float64(m)
	wMMm := ErlangC(m, a) * xbar / (float64(m) * (1 - rho))
	return (1 + cv2) / 2 * wMMm
}

// WaitMG1 returns the mean M/G/1 waiting time (paper Eq. 4/6):
//
//	W = λ·x̄²·(1 + C²b) / (2(1 − λ·x̄))
//
// See WaitMGm for boundary behaviour.
func WaitMG1(lambda, xbar, cv2 float64) float64 {
	return WaitMGm(1, lambda, xbar, cv2)
}

// WaitWormholeMG1 composes WaitMG1 with the Draper–Ghosh CV² approximation
// for a wormhole channel carrying fixed-length messages of msgFlits flits
// (paper Eq. 6).
func WaitWormholeMG1(lambda, xbar, msgFlits float64) float64 {
	return WaitMG1(lambda, xbar, CV2Wormhole(xbar, msgFlits))
}

// WaitWormholeMGm composes WaitMGm with the Draper–Ghosh CV² approximation
// (paper Eq. 8 for m = 2). lambda is the combined group arrival rate.
func WaitWormholeMGm(m int, lambda, xbar, msgFlits float64) float64 {
	return WaitMGm(m, lambda, xbar, CV2Wormhole(xbar, msgFlits))
}
