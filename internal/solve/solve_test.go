package solve

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestBisectSimpleRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := BisectContext(context.Background(), f, 0, 2, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %v, want sqrt(2)", root)
	}
}

func TestBisectEndpointsAreRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := BisectContext(context.Background(), f, 0, 1, 1e-12, 0); err != nil || r != 0 {
		t.Errorf("lo root: %v %v", r, err)
	}
	f2 := func(x float64) float64 { return x - 1 }
	if r, err := BisectContext(context.Background(), f2, 0, 1, 1e-12, 0); err != nil || r != 1 {
		t.Errorf("hi root: %v %v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := BisectContext(context.Background(), f, -1, 1, 1e-12, 0); err != ErrNoBracket {
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
	root, err := BisectContext(context.Background(), f, 0, 1, 1e-9, 0)
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
	root, err := BisectContext(context.Background(), f, 0, 1, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-0.5) > 1e-6 {
		t.Errorf("root = %v, want 0.5", root)
	}
}

func TestBisectNaNEndpoint(t *testing.T) {
	f := func(x float64) float64 { return math.NaN() }
	if _, err := BisectContext(context.Background(), f, 0, 1, 1e-9, 0); err != ErrNoBracket {
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
	root, err := BisectContext(context.Background(), f, 0, 1, 1e-12, 0)
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
	if _, err := BisectContext(context.Background(), f, 0, 1, 1e-12, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisectUnstableAtBothBrackets(t *testing.T) {
	// The capacity-planner failure mode: both bracket ends sit past
	// saturation, so the objective is +Inf (or NaN) at both — same sign,
	// no root to find.
	inf := func(x float64) float64 { return math.Inf(1) }
	if _, err := BisectContext(context.Background(), inf, 0.5, 1, 1e-9, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("+Inf ends: err = %v, want ErrNoBracket", err)
	}
	mixed := func(x float64) float64 {
		if x < 0.75 {
			return math.NaN() // NaN counts as +Inf
		}
		return math.Inf(1)
	}
	if _, err := BisectContext(context.Background(), mixed, 0.5, 1, 1e-9, 0); !errors.Is(err, ErrNoBracket) {
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

// TestBisectBracketReusesTheEnds: handed the objective's values at the
// bracket's ends, BisectBracket returns BisectContext's root bit for bit and
// evaluates the objective exactly twice less; a NaN end counts as +Inf
// there too.
func TestBisectBracketReusesTheEnds(t *testing.T) {
	for _, c := range []struct {
		f      func(float64) float64
		lo, hi float64
	}{
		{func(x float64) float64 { return x*x - 2 }, 0, 2},
		{func(x float64) float64 { return x - 1 }, 0, 1},
		{func(x float64) float64 {
			if x > 0.7 {
				return math.NaN()
			}
			return x - 0.5
		}, 0.1, 0.8},
		{func(x float64) float64 { return 1 }, 0, 1},
	} {
		calls := 0
		counted := func(x float64) float64 { calls++; return c.f(x) }
		want, wantErr := BisectContext(context.Background(), counted, c.lo, c.hi, 1e-12, 0)
		full := calls
		calls = 0
		got, err := BisectBracket(counted, c.lo, c.hi, c.f(c.lo), c.f(c.hi), 1e-12, 0)
		if math.Float64bits(got) != math.Float64bits(want) || !errors.Is(err, wantErr) {
			t.Errorf("[%v, %v]: BisectBracket = %v, %v; BisectContext = %v, %v", c.lo, c.hi, got, err, want, wantErr)
		}
		if calls != full-2 {
			t.Errorf("[%v, %v]: %d evaluations, want %d (BisectContext's %d less the two ends)", c.lo, c.hi, calls, full-2, full)
		}
	}
}
