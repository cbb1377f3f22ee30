package solve

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestBisectSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectEndpointsAreRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Bisect(f, 0, 1, 1e-12, 0); err != nil || r != 0 {
		t.Errorf("lo root: %v %v", r, err)
	}
	f2 := func(x float64) float64 { return x - 1 }
	if r, err := Bisect(f2, 0, 1, 1e-12, 0); err != nil || r != 1 {
		t.Errorf("hi root: %v %v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12, 0); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectWithInfinities(t *testing.T) {
	// Models return +Inf beyond saturation; bisect must still find the
	// crossing of g(x) = x*xbar(x) - 1 style functions.
	f := func(x float64) float64 {
		if x > 0.6 {
			return math.Inf(1)
		}
		return x - 0.5
	}
	root, err := Bisect(f, 0, 1, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-0.5) > 1e-6 {
		t.Errorf("root = %v, want 0.5", root)
	}
}

func TestBisectNaNMidpointTreatedAsUnstable(t *testing.T) {
	f := func(x float64) float64 {
		if x > 0.7 {
			return math.NaN()
		}
		return x - 0.5
	}
	root, err := Bisect(f, 0, 1, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-0.5) > 1e-6 {
		t.Errorf("root = %v, want 0.5", root)
	}
}

func TestBisectNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 { return math.NaN() }
	if _, err := Bisect(f, 0, 1, 1e-9, 0); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectMonotoneFlatRegion(t *testing.T) {
	// A plateau around the root (float-quantised latency curves do this):
	// bisection must still land inside the flat region, anywhere the
	// objective is zero-crossing-adjacent.
	f := func(x float64) float64 {
		switch {
		case x < 0.4:
			return -1
		case x > 0.6:
			return 1
		default:
			return 0
		}
	}
	root, err := Bisect(f, 0, 1, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root < 0.4-1e-9 || root > 0.6+1e-9 {
		t.Errorf("root = %v, want inside the flat region [0.4, 0.6]", root)
	}
}

func TestBisectFlatNonZeroHasNoBracket(t *testing.T) {
	// Entirely flat and non-zero: no sign change anywhere, so the interval
	// cannot bracket a root.
	f := func(x float64) float64 { return 1 }
	if _, err := Bisect(f, 0, 1, 1e-12, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectUnstableAtBothBrackets(t *testing.T) {
	// The capacity-planner failure mode: both bracket ends sit past
	// saturation, so the objective is +Inf (or NaN) at both — same sign,
	// no root to find.
	inf := func(x float64) float64 { return math.Inf(1) }
	if _, err := Bisect(inf, 0.5, 1, 1e-9, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("+Inf ends: err = %v, want ErrNoBracket", err)
	}
	mixed := func(x float64) float64 {
		if x < 0.75 {
			return math.NaN() // NaN counts as +Inf
		}
		return math.Inf(1)
	}
	if _, err := Bisect(mixed, 0.5, 1, 1e-9, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("NaN/+Inf ends: err = %v, want ErrNoBracket", err)
	}
}

func TestBisectContextCancelMidSolve(t *testing.T) {
	// Cancel from inside the objective: the search must stop at the next
	// evaluation, not run its full iteration budget.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	f := func(x float64) float64 {
		calls++
		if calls == 5 {
			cancel()
		}
		return x - 0.3337779
	}
	_, err := BisectContext(ctx, f, 0, 1, 1e-15, 1000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 5 {
		t.Errorf("objective evaluated %d times after cancellation (want none)", calls)
	}
}

func TestBisectContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	f := func(x float64) float64 { calls++; return x - 0.5 }
	if _, err := BisectContext(ctx, f, 0, 1, 1e-12, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("objective evaluated %d times under a dead context", calls)
	}
}

func TestFixedPointLinear(t *testing.T) {
	// x = 0.5x + 1 has fixed point 2.
	f := func(x, out []float64) { out[0] = 0.5*x[0] + 1 }
	got, err := fixedPoint(f, []float64{0}, DefaultFixedPointOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-8 {
		t.Errorf("fixed point = %v, want 2", got[0])
	}
}

func TestFixedPointVector(t *testing.T) {
	// x0 = 0.3 x1 + 1; x1 = 0.3 x0 + 2 -> x0 = (1 + 0.6)/(1-0.09), x1 = ...
	f := func(x, out []float64) {
		out[0] = 0.3*x[1] + 1
		out[1] = 0.3*x[0] + 2
	}
	got, err := fixedPoint(f, []float64{0, 0}, DefaultFixedPointOptions())
	if err != nil {
		t.Fatal(err)
	}
	want0 := (1 + 0.3*2) / (1 - 0.09)
	want1 := 0.3*want0 + 2
	if math.Abs(got[0]-want0) > 1e-7 || math.Abs(got[1]-want1) > 1e-7 {
		t.Errorf("fixed point = %v, want [%v %v]", got, want0, want1)
	}
}

func TestFixedPointDivergence(t *testing.T) {
	f := func(x, out []float64) { out[0] = 2*x[0] + 1 }
	opt := DefaultFixedPointOptions()
	opt.MaxIter = 100
	if _, err := fixedPoint(f, []float64{1}, opt); err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestFixedPointInfinityAborts(t *testing.T) {
	f := func(x, out []float64) { out[0] = math.Inf(1) }
	if _, err := fixedPoint(f, []float64{1}, DefaultFixedPointOptions()); err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// TestFixedPointInPlacePartialIterate: an iteration stopped by a
// non-finite component leaves the partially updated iterate in x — the
// components before it moved, the rest did not — and counts the sweep.
func TestFixedPointInPlacePartialIterate(t *testing.T) {
	f := func(x, out []float64) {
		out[0] = x[0] + 1
		out[1] = math.Inf(1)
		out[2] = 0
	}
	x := []float64{1, 2, 3}
	it, err := FixedPointInPlace(f, x, make([]float64, 3), DefaultFixedPointOptions())
	if err != ErrNoConvergence || it != 1 {
		t.Fatalf("(%d, %v), want (1, ErrNoConvergence)", it, err)
	}
	if want := []float64{1.5, 2, 3}; x[0] != want[0] || x[1] != want[1] || x[2] != want[2] {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestFixedPointBadOptionsFallBack(t *testing.T) {
	f := func(x, out []float64) { out[0] = 0.5*x[0] + 1 }
	got, err := fixedPoint(f, []float64{0}, FixedPointOptions{Damping: -1, Tol: -1, MaxIter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-8 {
		t.Errorf("fixed point = %v, want 2", got[0])
	}
}

// fixedPoint runs FixedPointInPlace from a copy of x0.
func fixedPoint(f func(x, out []float64), x0 []float64, opt FixedPointOptions) ([]float64, error) {
	x := append([]float64(nil), x0...)
	_, err := FixedPointInPlace(f, x, make([]float64, len(x)), opt)
	return x, err
}

func TestGrowToUnstable(t *testing.T) {
	// Stable below 0.37.
	stable, unstable, ok := GrowToUnstable(func(x float64) bool { return x < 0.37 }, 0.001, 0)
	if !ok {
		t.Fatal("expected bracket")
	}
	if stable >= 0.37 || unstable < 0.37 || unstable != stable*2 {
		t.Errorf("bracket = (%v, %v)", stable, unstable)
	}
}

func TestGrowToUnstableImmediateFail(t *testing.T) {
	stable, unstable, ok := GrowToUnstable(func(x float64) bool { return false }, 0.5, 0)
	if !ok || stable != 0 || unstable != 0.5 {
		t.Errorf("got (%v, %v, %v)", stable, unstable, ok)
	}
}

func TestGrowToUnstableNeverFails(t *testing.T) {
	_, _, ok := GrowToUnstable(func(x float64) bool { return true }, 1, 8)
	if ok {
		t.Error("expected ok=false when predicate never fails")
	}
}
