package queueing

import "math"

// CV2Wormhole returns the squared coefficient of variation of a wormhole
// channel service time under the Draper–Ghosh approximation (paper Eq. 5):
//
//	C²b = (x̄ − s/f)² / x̄²
//
// where x̄ is the mean service time of the channel and msgFlits = s/f is the
// message length in flits. The intuition: the service time is the fixed
// transmission time (msgFlits cycles) plus downstream blocking delays, and
// the standard deviation is approximated by the mean excess over the
// no-blocking service time. When x̄ equals msgFlits (no blocking anywhere
// downstream) the service is deterministic and C²b = 0.
//
// Returns NaN if xbar <= 0 or msgFlits < 0.
func CV2Wormhole(xbar, msgFlits float64) float64 {
	if xbar <= 0 || msgFlits < 0 || math.IsNaN(xbar) || math.IsNaN(msgFlits) {
		return math.NaN()
	}
	d := (xbar - msgFlits) / xbar
	return d * d
}
