package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

// paperEq6 is a literal transcription of the paper's Equation 6:
// W_{M/G/1} = λx̄²/(2(1−λx̄)) · (1 + (x̄ − s/f)²/x̄²).
func paperEq6(lambda, xbar, msgFlits float64) float64 {
	return lambda * xbar * xbar / (2 * (1 - lambda*xbar)) *
		(1 + (xbar-msgFlits)*(xbar-msgFlits)/(xbar*xbar))
}

// paperEq8 is a literal transcription of the paper's Equation 8:
// W_{M/G/2} = λ²x̄³/(2(4−λ²x̄²)) · (1 + (x̄ − s/f)²/x̄²).
func paperEq8(lambda, xbar, msgFlits float64) float64 {
	return lambda * lambda * xbar * xbar * xbar / (2 * (4 - lambda*lambda*xbar*xbar)) *
		(1 + (xbar-msgFlits)*(xbar-msgFlits)/(xbar*xbar))
}

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

func TestWaitMG1MatchesPaperEq6(t *testing.T) {
	cases := []struct{ lambda, xbar, flits float64 }{
		{0.01, 16, 16},
		{0.02, 20, 16},
		{0.001, 64, 64},
		{0.005, 80, 64},
		{0.03, 18.5, 16},
	}
	for _, c := range cases {
		got := WaitWormholeMG1(c.lambda, c.xbar, c.flits)
		want := paperEq6(c.lambda, c.xbar, c.flits)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("WaitWormholeMG1(%v,%v,%v) = %v, paper Eq.6 gives %v",
				c.lambda, c.xbar, c.flits, got, want)
		}
	}
}

func TestWaitMG2MatchesPaperEq8(t *testing.T) {
	cases := []struct{ lambda, xbar, flits float64 }{
		{0.02, 16, 16},
		{0.04, 20, 16},
		{0.002, 64, 64},
		{0.01, 80, 64},
		{0.06, 18.5, 16},
	}
	for _, c := range cases {
		got := WaitWormholeMGm(2, c.lambda, c.xbar, c.flits)
		want := paperEq8(c.lambda, c.xbar, c.flits)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("WaitWormholeMGm(2,%v,%v,%v) = %v, paper Eq.8 gives %v",
				c.lambda, c.xbar, c.flits, got, want)
		}
	}
}

func TestWaitZeroLoad(t *testing.T) {
	for m := 1; m <= 4; m++ {
		if w := WaitMGm(m, 0, 16, 0.5); w != 0 {
			t.Errorf("WaitMGm(%d, 0, ...) = %v, want 0", m, w)
		}
	}
}

func TestWaitUnstable(t *testing.T) {
	if w := WaitMG1(0.1, 16, 0); !math.IsInf(w, 1) {
		t.Errorf("WaitMG1 at rho=1.6 = %v, want +Inf", w)
	}
	if w := WaitMGm(2, 0.2, 16, 0); !math.IsInf(w, 1) {
		t.Errorf("WaitMGm(2, …) at rho=1.6 = %v, want +Inf", w)
	}
	// Exactly at the boundary rho == 1.
	if w := WaitMG1(1.0/16, 16, 0); !math.IsInf(w, 1) {
		t.Errorf("WaitMG1 at rho=1 = %v, want +Inf", w)
	}
}

func TestWaitInvalidInputs(t *testing.T) {
	bad := [][4]float64{
		{-1, 0.1, 16, 0}, // m encoded separately below
		{1, -0.1, 16, 0}, // negative lambda
		{1, 0.1, -16, 0}, // negative xbar
		{1, 0.1, 16, -1}, // negative cv2
		{1, math.NaN(), 16, 0},
		{1, 0.1, math.NaN(), 0},
	}
	for _, c := range bad {
		w := WaitMGm(int(c[0]), c[1], c[2], c[3])
		if !math.IsNaN(w) {
			t.Errorf("WaitMGm(%v) = %v, want NaN", c, w)
		}
	}
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic tabulated values: B(m=1, a) = a/(1+a).
	if got, want := ErlangB(1, 1), 0.5; !almostEqual(got, want, 1e-12) {
		t.Errorf("ErlangB(1,1) = %v, want %v", got, want)
	}
	// B(2, 1) = (1/2)/(1 + 1 + 1/2) = 0.2.
	if got, want := ErlangB(2, 1), 0.2; !almostEqual(got, want, 1e-12) {
		t.Errorf("ErlangB(2,1) = %v, want %v", got, want)
	}
	// B(3, 2) = (8/6)/(1+2+2+8/6) = (4/3)/(19/3) = 4/19.
	if got, want := ErlangB(3, 2), 4.0/19.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("ErlangB(3,2) = %v, want %v", got, want)
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// For m=1, C = rho.
	if got, want := ErlangC(1, 0.3), 0.3; !almostEqual(got, want, 1e-12) {
		t.Errorf("ErlangC(1,0.3) = %v, want %v", got, want)
	}
	// For m=2, a=1 (rho=0.5): C = 2rho^2/(1+rho) = 1/3.
	if got, want := ErlangC(2, 1), 1.0/3.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("ErlangC(2,1) = %v, want %v", got, want)
	}
	if got := ErlangC(2, 2.5); got != 1 {
		t.Errorf("ErlangC saturated = %v, want 1", got)
	}
}

func TestWaitMGmReducesToMM1ForExponential(t *testing.T) {
	// M/M/1: W = rho*x/(1-rho).
	lambda, xbar := 0.04, 16.0
	rho := lambda * xbar
	want := rho * xbar / (1 - rho)
	got := WaitMG1(lambda, xbar, 1) // C²b = 1
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("M/M/1 wait = %v, want %v", got, want)
	}
}

func TestWaitMGmReducesToMD1ForDeterministic(t *testing.T) {
	// M/D/1: W = rho*x/(2(1-rho)).
	lambda, xbar := 0.04, 16.0
	rho := lambda * xbar
	want := rho * xbar / (2 * (1 - rho))
	got := WaitMG1(lambda, xbar, 0) // C²b = 0
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("M/D/1 wait = %v, want %v", got, want)
	}
}

func TestCV2Wormhole(t *testing.T) {
	// No excess over transmission time: deterministic.
	if got := CV2Wormhole(16, 16); got != 0 {
		t.Errorf("CV2Wormhole(16,16) = %v, want 0", got)
	}
	// x = 2s: CV2 = (s/2s)^2 = 0.25.
	if got := CV2Wormhole(32, 16); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("CV2Wormhole(32,16) = %v, want 0.25", got)
	}
	if got := CV2Wormhole(0, 16); !math.IsNaN(got) {
		t.Errorf("CV2Wormhole(0,16) = %v, want NaN", got)
	}
	if got := CV2Wormhole(16, -1); !math.IsNaN(got) {
		t.Errorf("CV2Wormhole(16,-1) = %v, want NaN", got)
	}
}

// clamp converts an arbitrary quick-generated float into a usable range.
func clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	x = math.Abs(x)
	frac := x - math.Floor(x) // in [0,1)
	return lo + frac*(hi-lo)
}

func TestPropertyWaitMonotoneInLambda(t *testing.T) {
	f := func(rawL1, rawL2, rawX, rawCV float64) bool {
		xbar := clamp(rawX, 1, 100)
		cv2 := clamp(rawCV, 0, 2)
		// Two loads strictly inside the stability region.
		l1 := clamp(rawL1, 0, 0.99/xbar)
		l2 := clamp(rawL2, 0, 0.99/xbar)
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		w1 := WaitMG1(l1, xbar, cv2)
		w2 := WaitMG1(l2, xbar, cv2)
		return w1 <= w2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWaitMonotoneInServiceTime(t *testing.T) {
	f := func(rawX1, rawX2, rawL, rawCV float64) bool {
		x1 := clamp(rawX1, 1, 100)
		x2 := clamp(rawX2, 1, 100)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		cv2 := clamp(rawCV, 0, 2)
		lambda := clamp(rawL, 0, 0.99/x2)
		w1 := WaitMG1(lambda, x1, cv2)
		w2 := WaitMG1(lambda, x2, cv2)
		return w1 <= w2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Two servers fed the combined rate always beat one server fed the per-link
// rate at equal per-server utilization: W_{M/G/2}(2λ, x̄) <= W_{M/G/1}(λ, x̄).
// This is the quantitative reason the paper's multi-server treatment of the
// fat-tree up-link pair differs from modelling each link separately.
func TestPropertyTwoServersBeatOne(t *testing.T) {
	f := func(rawL, rawX, rawCV float64) bool {
		xbar := clamp(rawX, 1, 100)
		cv2 := clamp(rawCV, 0, 2)
		lambda := clamp(rawL, 0, 0.99/xbar)
		w2 := WaitMGm(2, 2*lambda, xbar, cv2)
		w1 := WaitMG1(lambda, xbar, cv2)
		return w2 <= w1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWaitNonNegative(t *testing.T) {
	f := func(rawM uint8, rawL, rawX, rawCV float64) bool {
		m := 1 + int(rawM%4)
		xbar := clamp(rawX, 0.5, 200)
		cv2 := clamp(rawCV, 0, 4)
		lambda := clamp(rawL, 0, float64(m)*0.999/xbar)
		w := WaitMGm(m, lambda, xbar, cv2)
		return w >= 0 && !math.IsNaN(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyErlangCBetweenBAndOne(t *testing.T) {
	f := func(rawM uint8, rawA float64) bool {
		m := 1 + int(rawM%8)
		a := clamp(rawA, 0, float64(m)*0.999)
		b := ErlangB(m, a)
		c := ErlangC(m, a)
		return b >= 0 && b <= 1 && c >= b-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationAndStable(t *testing.T) {
	if got := Utilization(2, 0.1, 10); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	// A queue is stable while ρ < 1: there its wait is finite.
	if w := WaitMGm(2, 0.1, 10, 0); math.IsInf(w, 0) || math.IsNaN(w) {
		t.Errorf("WaitMGm(2, 0.1, 10) = %v at rho=0.5, want finite", w)
	}
	if w := WaitMGm(1, 0.1, 10, 0); !math.IsInf(w, 1) {
		t.Errorf("WaitMGm(1, 0.1, 10) = %v at rho=1, want +Inf", w)
	}
	if !math.IsNaN(Utilization(0, 0.1, 10)) || !math.IsNaN(WaitMGm(0, 0.1, 10, 0)) {
		t.Error("m=0 should give NaN")
	}
	if w := WaitMGm(1, 0, 10, 0); w != 0 {
		t.Errorf("zero arrival rate waits %v, want 0", w)
	}
}
