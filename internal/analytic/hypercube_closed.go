package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/queueing"
)

// ClosedForm evaluates the hypercube (the k = 2 torus) by a direct
// backward sweep over dimensions (the channel graph is acyclic for e-cube
// routing), giving a second, independent implementation of the same
// equations the generic solver resolves in its ordered pass. Tests
// require the two to agree to round-off, mirroring the fat-tree's
// closed-form/graph cross-check. Only the paper model (zero Options) is
// supported.
func (m *TorusModel) ClosedForm(lambda0 float64) (Latency, error) {
	net := m.net
	if net.k != 2 {
		return Latency{}, fmt.Errorf("analytic: ClosedForm requires k=2, have %d", net.k)
	}
	if m.opt != (core.Options{}) {
		return Latency{}, fmt.Errorf("analytic: ClosedForm supports only the paper model")
	}
	if lambda0 < 0 || math.IsNaN(lambda0) {
		return Latency{}, fmt.Errorf("analytic: bad arrival rate %v", lambda0)
	}
	n := net.dims
	s := m.msgFlits
	nProc := float64(net.numProc)
	lamLink := lambda0 * nProc / (2 * (nProc - 1))

	fail := func(name string, lam, x float64) error {
		return &core.UnstableError{Class: name + "@" + m.Name(),
			Rho: queueing.Utilization(1, lam, x)}
	}

	// Ejection channel (terminal).
	xEj := s
	wEj := queueing.WaitWormholeMG1(lambda0, xEj, s)
	if math.IsInf(wEj, 1) {
		return Latency{}, fail("eject", lambda0, xEj)
	}

	// Dimensions from last-routed to first-routed.
	x := make([]float64, n)
	w := make([]float64, n)
	for d := n - 1; d >= 0; d-- {
		var sum float64
		for e := d + 1; e < n; e++ {
			r := math.Pow(0.5, float64(e-d))
			p := clamp01(1 - r) // rates equal across dimensions
			sum += r * (x[e] + p*w[e])
		}
		rEj := math.Pow(0.5, float64(n-1-d))
		var pEj float64
		if lambda0 > 0 {
			pEj = clamp01(1 - lamLink/lambda0*rEj)
		} else {
			pEj = 1
		}
		sum += rEj * (xEj + pEj*wEj)
		x[d] = sum
		w[d] = queueing.WaitWormholeMG1(lamLink, x[d], s)
		if math.IsInf(w[d], 1) {
			return Latency{}, fail(fmt.Sprintf("dim%d", d), lamLink, x[d])
		}
	}

	// Injection channel: first corrected dimension is the lowest set bit.
	var xInj float64
	for d := 0; d < n; d++ {
		r := math.Pow(2, float64(n-d-1)) / (nProc - 1)
		var p float64
		if lamLink > 0 {
			p = clamp01(1 - lambda0/lamLink*r)
		} else {
			p = 1
		}
		xInj += r * (x[d] + p*w[d])
	}
	wInj := queueing.WaitWormholeMG1(lambda0, xInj, s)
	if math.IsInf(wInj, 1) {
		return Latency{}, fail("inject", lambda0, xInj)
	}
	return Latency{
		Total:      wInj + xInj + m.AvgDist() - 1,
		WaitInj:    wInj,
		ServiceInj: xInj,
		AvgDist:    m.AvgDist(),
	}, nil
}
