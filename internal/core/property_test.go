package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/traffic"
)

// scaleRates returns a copy of m with every rate multiplied by k.
func scaleRates(m *Model, k float64) *Model {
	s := &Model{MsgFlits: m.MsgFlits, Classes: append([]Class(nil), m.Classes...)}
	for i := range s.Classes {
		s.Classes[i].PerLinkRate *= k
	}
	return s
}

// nearSaturation returns m with every rate scaled by one factor, found by
// bisection, that puts its busiest group at utilization rho (to 1e-6)
// under the paper's model.
func nearSaturation(t *testing.T, m *Model, rho float64) *Model {
	t.Helper()
	busiest := func(k float64) float64 {
		res, err := scaleRates(m, k).Resolve(Options{})
		if err != nil {
			return math.Inf(1)
		}
		return slices.Max(res.Utilization)
	}
	lo, hi := 1.0, 1.0
	for busiest(hi) < rho {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1e-12*hi {
		if mid := (lo + hi) / 2; busiest(mid) < rho {
			lo = mid
		} else {
			hi = mid
		}
	}
	if got := busiest(lo); math.Abs(got-rho) > 1e-6 {
		t.Fatalf("scaling reached ρ = %v, want %v", got, rho)
	}
	return scaleRates(m, lo)
}

// randomLayeredModel builds a random acyclic channel-class model with the
// given seed: a chain of layers, each class routing to classes in the next
// layer with random probabilities and group fan-outs. Rates are kept well
// inside the stability region so Resolve must succeed.
func randomLayeredModel(seed uint64) *Model {
	rng := traffic.NewRNG(seed)
	layers := 2 + rng.Intn(4)
	width := 1 + rng.Intn(3)
	msgFlits := float64(4 + rng.Intn(28))

	var classes []Class
	idOf := func(layer, i int) ClassID { return ClassID(layer*width + i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			servers := 1
			if rng.Intn(3) == 0 {
				servers = 1 + rng.Intn(3) // exercises m up to 3
			}
			c := Class{
				Name:        "c" + string(rune('a'+l)) + string(rune('0'+i)),
				Servers:     servers,
				PerLinkRate: rng.Float64() * 0.3 / msgFlits / float64(servers),
			}
			if l == layers-1 {
				c.Terminal = true
			} else {
				// Random split over next-layer classes.
				remaining := 1.0
				for j := 0; j < width; j++ {
					p := remaining
					if j < width-1 {
						p = remaining * rng.Float64()
					}
					remaining -= p
					c.Out = append(c.Out, Transition{
						To:     idOf(l+1, j),
						Prob:   p,
						Groups: 1 + rng.Intn(4),
					})
				}
			}
			classes = append(classes, c)
		}
	}
	return &Model{Classes: classes, MsgFlits: msgFlits}
}

// Service times can never be below the raw transmission time, and waits
// are never negative: the model only ever adds blocking delay.
func TestPropertyServiceTimeAtLeastTransmission(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomLayeredModel(seed)
		res, err := m.Resolve(Options{})
		if err != nil {
			// Random rates are conservative; instability would be a bug.
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, x := range res.ServiceTime {
			if x < m.MsgFlits-1e-9 || math.IsNaN(x) {
				return false
			}
			if res.Wait[i] < 0 || math.IsNaN(res.Wait[i]) {
				return false
			}
			if res.Utilization[i] < 0 || res.Utilization[i] >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The ordered pass is the fixed point: on a random acyclic model, under
// the paper's options and every ablation, one pass gives the service
// times and waits the damped iteration converges to, in one sweep.
//
// The damped kernel stops once a sweep moves no x̄ by 1e-10. The last
// sweep halved the gap of every class whose targets had settled, so its
// x̄ is within 1e-10 of the fixed point, inside 1e-9 relative at x̄ >= 4.
// W̄ is a function of x̄ alone, and a gap in x̄ reaches it scaled by W̄'s
// elasticity x̄·W̄'/W̄: about 2 for an idle M/G/1 group, but ρ/(1−ρ) for
// a group near saturation, 940 at ρ = 0.999. So W̄ is held to 1e-9
// relative times that elasticity, where it exceeds 1.
func TestPropertyOrderedPassIsTheFixedPoint(t *testing.T) {
	variants := []Options{
		{},
		{NoBlockingCorrection: true},
		{SingleServerGroups: true},
		{NoPairRateCorrection: true},
	}
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	var ws Workspace
	check := func(seed uint64, m *Model) bool {
		g, err := Compile(m.Classes)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g.order == nil {
			t.Logf("seed %d: no order for an acyclic model", seed)
			return false
		}
		for _, opt := range variants {
			rates := ws.Bind(g, m.MsgFlits)
			for i := range m.Classes {
				rates[i] = m.Classes[i].PerLinkRate
			}
			err := ws.Resolve(opt)
			if ws.Iterations != 1 {
				t.Logf("seed %d %+v: %d sweeps", seed, opt, ws.Iterations)
				return false
			}
			x := append([]float64(nil), ws.ServiceTime...)
			w := append([]float64(nil), ws.Wait...)
			// The damped kernel the cyclic path runs, over the same
			// blocking factors and queue rates; an ablation may saturate,
			// and then both must say so.
			converged := ws.damped()
			damped := ws.ServiceTime
			dampedStable := converged
			for i := range damped {
				dampedStable = dampedStable && ws.checkStable(i, damped[i])
			}
			if (err == nil) != dampedStable {
				t.Logf("seed %d %+v: ordered pass %v, fixed point stable=%v (converged %v after %d sweeps)", seed, opt, err, dampedStable, converged, ws.Iterations)
				return false
			}
			if err != nil {
				continue
			}
			for i := range damped {
				if d := rel(x[i], damped[i]); d > 1e-9 {
					t.Logf("seed %d %+v class %d: x̄ %v ordered, %v damped (%g)", seed, opt, i, x[i], damped[i], d)
					return false
				}
				const h = 1e-6 // a relative step in x̄ for W̄'s slope
				lo, hi := ws.wait(i, x[i]*(1-h)), ws.wait(i, x[i]*(1+h))
				elasticity := (hi - lo) / (2 * h * w[i])
				if math.IsNaN(elasticity) || math.IsInf(elasticity, 0) {
					t.Logf("seed %d %+v class %d: W̄ %v has no slope at x̄ %v (%v, %v)", seed, opt, i, w[i], x[i], lo, hi)
					return false
				}
				if d := rel(w[i], ws.wait(i, damped[i])); d > 1e-9*max(1, math.Abs(elasticity)) {
					t.Logf("seed %d %+v class %d: W̄ %v ordered, %v damped (%g, elasticity %g)", seed, opt, i, w[i], ws.wait(i, damped[i]), d, elasticity)
					return false
				}
			}
		}
		return true
	}
	f := func(seed uint64) bool { return check(seed, randomLayeredModel(seed)) }
	// Drawn models stay below ρ ≈ 0.94, so one is pinned near saturation:
	// this seed once put a group at ρ = 0.9989 under an exponential C²b.
	// Its rates are scaled to put the busiest group there under the
	// paper's C²b, where its W̄ gap (5.7e-9) is the x̄ gap times an
	// elasticity of 910.
	for _, seed := range []uint64{0x8101103bffea781c} {
		if !check(seed, nearSaturation(t, randomLayeredModel(seed), 0.9989)) {
			t.Errorf("seed %#x: the ordered pass is not the fixed point", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Scaling all rates down can only shrink service times (monotonicity in
// offered load), for the paper model and for every ablation variant. A
// saturated model's service time is unbounded, so the full load
// saturating holds the property whatever the lighter load does; the
// lighter load saturating alone breaks it.
func TestPropertyServiceMonotoneInLoad(t *testing.T) {
	variants := []Options{
		{},
		{NoBlockingCorrection: true},
		{SingleServerGroups: true},
	}
	check := func(m *Model, scaleRaw float64) bool {
		scale := 0.1 + 0.8*math.Abs(scaleRaw-math.Floor(scaleRaw)) // in (0.1, 0.9)
		lighter := scaleRates(m, scale)
		for _, opt := range variants {
			full, err1 := m.Resolve(opt)
			light, err2 := lighter.Resolve(opt)
			if IsUnstable(err1) {
				continue // unbounded at full load
			}
			if err1 != nil || err2 != nil {
				return false
			}
			for i := range full.ServiceTime {
				if light.ServiceTime[i] > full.ServiceTime[i]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	f := func(seed uint64, scaleRaw float64) bool { return check(randomLayeredModel(seed), scaleRaw) }
	// Drawn models stay below ρ ≈ 0.94, so one is pinned past saturation:
	// this seed's full load once saturated class ca1 (rho=1.3269) under an
	// exponential C²b while a tenth of it resolved. Its rates are scaled
	// to 5 % past the paper model's ρ = 0.9989 point.
	full := scaleRates(nearSaturation(t, randomLayeredModel(0x296b9f13fbae4230), 0.9989), 1.05)
	if _, err := full.Resolve(Options{}); !IsUnstable(err) {
		t.Fatalf("the pinned full load resolves (%v): it no longer tests saturation", err)
	}
	if !check(full, 0) {
		t.Error("seed 0x296b9f13fbae4230: full-load saturation counted against monotonicity")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The blocking correction can only reduce predicted service times: P <= 1
// scales waits down relative to the uncorrected variant. The uncorrected
// variant saturating where the corrected one resolves is that same
// ordering taken to its limit, so it holds the property; the corrected
// model failing alone breaks it.
func TestPropertyBlockingCorrectionReduces(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomLayeredModel(seed)
		with, err1 := m.Resolve(Options{})
		without, err2 := m.Resolve(Options{NoBlockingCorrection: true})
		if err1 != nil {
			return false
		}
		if err2 != nil {
			return true // only the uncorrected variant saturates
		}
		for i := range with.ServiceTime {
			if with.ServiceTime[i] > without.ServiceTime[i]+1e-9 {
				return false
			}
		}
		return true
	}
	// The seed testing/quick once drew: corrected resolves, uncorrected
	// reports class ca0 saturated (rho=1.1414).
	if !f(0x8a556637d53d20a0) {
		t.Error("seed 0x8a556637d53d20a0: uncorrected saturation counted against the correction")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The paper's closing remark: "the framework can be extended for networks
// that require queuing models with more than two servers". A four-parent
// variant (one group of four up-links) must resolve, and its wait must
// undercut both the two-server and single-server treatments at equal
// per-link load.
func TestFourServerGroupsSupported(t *testing.T) {
	build := func(servers int) *Model {
		return &Model{
			MsgFlits: 16,
			Classes: []Class{
				{Name: "group", Servers: servers, PerLinkRate: 0.01, Terminal: true},
				{Name: "in", PerLinkRate: 0.01, Out: []Transition{{To: 0, Prob: 1, Groups: 1}}},
			},
		}
	}
	waits := map[int]float64{}
	for _, m := range []int{1, 2, 4} {
		res, err := build(m).Resolve(Options{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		waits[m] = res.Wait[0]
	}
	if !(waits[4] < waits[2] && waits[2] < waits[1]) {
		t.Errorf("waits not ordered by server count: %v", waits)
	}
}
