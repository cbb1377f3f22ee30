package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/queueing"
	"repro/internal/traffic"
)

// twoHop builds the simplest nontrivial model: inject -> relay -> eject,
// all single-server, unit routing.
func twoHop(lambda, flits float64) *Model {
	return &Model{
		MsgFlits: flits,
		Classes: []Class{
			{Name: "eject", PerLinkRate: lambda, Terminal: true},
			{Name: "relay", PerLinkRate: lambda, Out: []Transition{{To: 0, Prob: 1}}},
			{Name: "inject", PerLinkRate: lambda, Out: []Transition{{To: 1, Prob: 1}}},
		},
	}
}

func TestResolveTwoHopHandComputed(t *testing.T) {
	const lambda, s = 0.01, 16.0
	m := twoHop(lambda, s)
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ejection: x = s.
	if res.ServiceTime[0] != s {
		t.Errorf("x_eject = %v, want %v", res.ServiceTime[0], s)
	}
	// Relay: all ejection traffic comes from the single relay channel
	// (lambda_i == lambda_j, R = 1), so P = 0 and x_relay = s.
	if math.Abs(res.ServiceTime[1]-s) > 1e-9 {
		t.Errorf("x_relay = %v, want %v (blocking correction should null the wait)", res.ServiceTime[1], s)
	}
	// Inject: same argument.
	if math.Abs(res.ServiceTime[2]-s) > 1e-9 {
		t.Errorf("x_inject = %v, want %v", res.ServiceTime[2], s)
	}
	// Waits are still reported per class (they apply to other inputs).
	wantW := queueing.WaitWormholeMG1(lambda, s, s)
	for i := 0; i < 3; i++ {
		if math.Abs(res.Wait[i]-wantW) > 1e-9 {
			t.Errorf("W[%d] = %v, want %v", i, res.Wait[i], wantW)
		}
	}
}

func TestResolveNoBlockingCorrectionChargesFullWait(t *testing.T) {
	const lambda, s = 0.01, 16.0
	m := twoHop(lambda, s)
	res, err := m.Resolve(Options{NoBlockingCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceTime[1] <= s {
		t.Errorf("x_relay = %v, want > %v without the blocking correction", res.ServiceTime[1], s)
	}
	// x_relay = s + W(eject at x=s).
	want := s + queueing.WaitWormholeMG1(lambda, s, s)
	if math.Abs(res.ServiceTime[1]-want) > 1e-9 {
		t.Errorf("x_relay = %v, want %v", res.ServiceTime[1], want)
	}
}

// fanIn builds a 4-into-1 merge: four statistically identical input
// channels feed one output channel, like a fat-tree switch seen from its
// children.
func fanIn(lambdaIn, flits float64) *Model {
	return &Model{
		MsgFlits: flits,
		Classes: []Class{
			{Name: "out", PerLinkRate: 4 * lambdaIn, Terminal: true},
			{Name: "in", PerLinkRate: lambdaIn, Out: []Transition{{To: 0, Prob: 1}}},
		},
	}
}

func TestResolveFanInBlocking(t *testing.T) {
	const lambda, s = 0.002, 16.0
	m := fanIn(lambda, s)
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P(i|j) = 1 - (lambda/(4 lambda)) * 1 = 3/4: a quarter of the
	// output's load is your own stream, which cannot block you.
	wOut := queueing.WaitWormholeMG1(4*lambda, s, s)
	want := s + 0.75*wOut
	if math.Abs(res.ServiceTime[1]-want) > 1e-9 {
		t.Errorf("x_in = %v, want %v", res.ServiceTime[1], want)
	}
}

func TestResolveMultiServerGroupUsesCombinedRate(t *testing.T) {
	const lambda, s = 0.01, 16.0
	m := &Model{
		MsgFlits: s,
		Classes: []Class{
			{Name: "pair", Servers: 2, PerLinkRate: lambda, Terminal: true},
			{Name: "in", PerLinkRate: lambda, Out: []Transition{{To: 0, Prob: 1, Groups: 1}}},
		},
	}
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.WaitWormholeMGm(2, 2*lambda, s, s)
	if math.Abs(res.Wait[0]-want) > 1e-12 {
		t.Errorf("pair wait = %v, want M/G/2 at 2λ = %v", res.Wait[0], want)
	}
	// Erratum ablation: per-link rate underestimates the wait.
	res2, err := m.Resolve(Options{NoPairRateCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Wait[0] >= res.Wait[0] {
		t.Errorf("NoPairRateCorrection wait %v should be below corrected %v", res2.Wait[0], res.Wait[0])
	}
	// Single-server ablation: two independent M/G/1 queues wait longer.
	res3, err := m.Resolve(Options{SingleServerGroups: true})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Wait[0] <= res.Wait[0] {
		t.Errorf("SingleServerGroups wait %v should exceed M/G/2 wait %v", res3.Wait[0], res.Wait[0])
	}
}

func TestResolveUnstableDetected(t *testing.T) {
	// rho = 0.09*16 = 1.44 on every channel.
	m := twoHop(0.09, 16)
	_, err := m.Resolve(Options{})
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v, want ErrUnstable", err)
	}
	var ue *UnstableError
	if !errors.As(err, &ue) {
		t.Fatal("error should be an *UnstableError")
	}
	if ue.Rho < 1 {
		t.Errorf("reported rho = %v, want >= 1", ue.Rho)
	}
	if !strings.Contains(ue.Error(), "saturated") {
		t.Errorf("error text %q", ue.Error())
	}
}

func TestResolveNearSaturationDivergenceDetected(t *testing.T) {
	// Stable at raw transmission time but diverges once waits feed back:
	// rho_raw = 0.059*16 = 0.944, so the ejection wait (C²b = 0 at x̄ = s)
	// is about 135 cycles, and charged in full it lifts the relay's x̄ to
	// about 151 and its rho to about 8.9.
	m := twoHop(0.059, 16)
	lat, err := m.Resolve(Options{NoBlockingCorrection: true})
	if err == nil {
		t.Fatalf("expected divergence, got service times %v", lat.ServiceTime)
	}
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v, want ErrUnstable", err)
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	cases := map[string]*Model{
		"bad msgflits": {MsgFlits: 0, Classes: []Class{{Name: "x", Terminal: true}}},
		"bad rate": {MsgFlits: 16, Classes: []Class{
			{Name: "x", PerLinkRate: -1, Terminal: true}}},
		"terminal with out": {MsgFlits: 16, Classes: []Class{
			{Name: "x", Terminal: true, Out: []Transition{{To: 0, Prob: 1}}}}},
		"probs dont sum": {MsgFlits: 16, Classes: []Class{
			{Name: "e", Terminal: true},
			{Name: "x", Out: []Transition{{To: 0, Prob: 0.5}}}}},
		"unknown target": {MsgFlits: 16, Classes: []Class{
			{Name: "x", Out: []Transition{{To: 9, Prob: 1}}}}},
		"negative prob": {MsgFlits: 16, Classes: []Class{
			{Name: "e", Terminal: true},
			{Name: "x", Out: []Transition{{To: 0, Prob: -0.2}, {To: 0, Prob: 1.2}}}}},
		"negative servers": {MsgFlits: 16, Classes: []Class{
			{Name: "x", Servers: -2, Terminal: true}}},
		"negative groups": {MsgFlits: 16, Classes: []Class{
			{Name: "e", Terminal: true},
			{Name: "x", Out: []Transition{{To: 0, Prob: 1, Groups: -1}}}}},
	}
	for name, m := range cases {
		if _, err := Compile(m.Classes); err == nil && m.MsgFlits > 0 {
			t.Errorf("%s: Compile accepted a bad model", name)
		}
		if _, err := m.Resolve(Options{}); err == nil {
			t.Errorf("%s: Resolve accepted a bad model", name)
		}
	}
}

func TestZeroRateModelResolves(t *testing.T) {
	m := twoHop(0, 16)
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range res.ServiceTime {
		if x != 16 {
			t.Errorf("x[%d] = %v, want 16 at zero load", i, x)
		}
		if res.Wait[i] != 0 {
			t.Errorf("W[%d] = %v, want 0 at zero load", i, res.Wait[i])
		}
		if res.Utilization[i] != 0 {
			t.Errorf("rho[%d] = %v, want 0", i, res.Utilization[i])
		}
	}
}

func TestBlockingClampsAtZero(t *testing.T) {
	// Incoming rate exceeding outgoing rate * groups would drive Eq. 10
	// negative; the implementation must clamp to 0, not go negative.
	m := &Model{
		MsgFlits: 8,
		Classes: []Class{
			{Name: "out", PerLinkRate: 0.001, Terminal: true},
			{Name: "in", PerLinkRate: 0.01, Out: []Transition{{To: 0, Prob: 1}}},
		},
	}
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceTime[1] != 8 {
		t.Errorf("x_in = %v, want 8 with clamped blocking", res.ServiceTime[1])
	}
}

func TestSelfLoopFixedPoint(t *testing.T) {
	// A class feeding itself (torus-style) must converge via the damped
	// iteration rather than needing a topological order.
	m := &Model{
		MsgFlits: 8,
		Classes: []Class{
			{Name: "eject", PerLinkRate: 0.01, Terminal: true},
			{Name: "ring", PerLinkRate: 0.02, Out: []Transition{
				{To: 1, Prob: 0.5},
				{To: 0, Prob: 0.5},
			}},
		},
	}
	res, err := m.Resolve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := res.ServiceTime[1]
	// Verify the fixed point by substitution.
	wSelf := res.Wait[1]
	wEj := res.Wait[0]
	pSelf := 1 - (0.02/0.02)*0.5
	pEj := 1 - (0.02/0.01)*0.5
	if pEj < 0 {
		pEj = 0
	}
	want := 0.5*(x+pSelf*wSelf) + 0.5*(8+pEj*wEj)
	if math.Abs(x-want) > 1e-6 {
		t.Errorf("self-loop fixed point inconsistent: x=%v, recomputed %v", x, want)
	}
}

// TestWaitWormhole1BitIdentical: the inlined single-server wormhole wait
// is queueing.WaitMGm(1, …) on queueing.CV2Wormhole to the last bit — over
// a seeded grid of operating points, at the boundaries the inline branches
// on, and on every input it hands back to the general functions.
func TestWaitWormhole1BitIdentical(t *testing.T) {
	check := func(lambda, x, s float64) {
		t.Helper()
		got := waitWormhole1(lambda, x, s)
		want := queueing.WaitMGm(1, lambda, x, queueing.CV2Wormhole(x, s))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("waitWormhole1(%v, %v, %v) = %v (%#x), WaitMGm %v (%#x)",
				lambda, x, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := traffic.NewRNG(333)
	for i := 0; i < 200_000; i++ {
		s := float64(1 + rng.Intn(256))
		x := s * (1 + 4*rng.Float64()*rng.Float64()) // x̄ ≥ s, mostly near it
		a := rng.Float64() * 1.05                    // offered load, a few beyond saturation
		check(a/x, x, s)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, s := range []float64{1, 16, 64} {
		check(0, s, s)      // no traffic
		check(0.01, s, s)   // no blocking downstream: deterministic service
		check(0.01, s/2, s) // x̄ below s (a transient of the damped iteration)
		check(1/s, s, s)    // a = 1
		check(2/s, s, s)    // a > 1
		check(math.Nextafter(1, 0)/s, s, s)
		check(math.Nextafter(1/s, 0), s, s)
		check(5e-324, s, s)    // a underflows
		check(0.01, 5e-324, s) // d² overflows
		for _, bad := range []float64{nan, inf, -inf, -1, 0} {
			check(bad, s, s)
			check(0.01, bad, s)
			check(0.01, s, bad)
			check(bad, bad, s)
			check(bad, bad, bad)
		}
	}
}
