package analytic

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// classID returns the id of the class named name in m, or -1.
func classID(m *core.Model, name string) core.ClassID {
	for i := range m.Classes {
		if m.Classes[i].Name == name {
			return core.ClassID(i)
		}
	}
	return -1
}

func TestTorusModelRejectsBadConfigs(t *testing.T) {
	bad := [][2]int{{1, 3}, {0, 3}, {2, 0}, {-2, 2}, {2, -1}, {4, 40}}
	for _, c := range bad {
		if _, err := NewTorusModel(c[0], c[1], 16, core.Options{}); err == nil {
			t.Errorf("accepted k=%d dims=%d", c[0], c[1])
		}
	}
	if _, err := NewTorusModel(4, 3, 0, core.Options{}); err == nil {
		t.Error("accepted zero message length")
	}
}

func TestTorusTransitionProbabilitiesValid(t *testing.T) {
	for _, c := range [][2]int{{2, 1}, {2, 4}, {2, 8}, {3, 3}, {4, 2}, {4, 4}, {8, 3}, {16, 2}} {
		m := MustTorusModel(c[0], c[1], 16, core.Options{})
		cm := m.BuildCoreModel(0.001)
		if err := cm.Validate(); err != nil {
			t.Errorf("k=%d dims=%d: %v", c[0], c[1], err)
		}
	}
}

func TestTorusSelfLoopProbability(t *testing.T) {
	// The dim-d class feeds itself with probability 1 - 2/k.
	m := MustTorusModel(8, 2, 16, core.Options{})
	cm := m.BuildCoreModel(0.001)
	d0 := classID(cm, "dim0")
	var self float64
	for _, tr := range cm.Classes[d0].Out {
		if tr.To == d0 {
			self = tr.Prob
		}
	}
	if math.Abs(self-(1-2.0/8)) > 1e-12 {
		t.Errorf("self-loop prob = %v, want %v", self, 1-2.0/8)
	}
	// k=2 must have no self-loop at all.
	h := MustTorusModel(2, 4, 16, core.Options{})
	hm := h.BuildCoreModel(0.001)
	for _, tr := range hm.Classes[classID(hm, "dim1")].Out {
		if tr.To == classID(hm, "dim1") {
			t.Error("k=2 torus has a self-loop")
		}
	}
}

// At k=2 the torus transition structure must match the exact hypercube
// derivation: from dim d, P(next dim e) = 2^-(e-d), P(eject) = 2^-(n-1-d);
// from injection, P(first dim d) = 2^(n-d-1)/(N-1).
func TestTorusK2MatchesHypercubeDerivation(t *testing.T) {
	const dims = 5
	m := MustTorusModel(2, dims, 16, core.Options{})
	cm := m.BuildCoreModel(0.003)
	n := float64(int(1) << dims)

	for d := 0; d < dims; d++ {
		c := cm.Classes[classID(cm, "dim"+string(rune('0'+d)))]
		for _, tr := range c.Out {
			name := cm.Classes[tr.To].Name
			switch name {
			case "eject":
				want := math.Pow(0.5, float64(dims-1-d))
				if math.Abs(tr.Prob-want) > 1e-12 {
					t.Errorf("dim%d->eject = %v, want %v", d, tr.Prob, want)
				}
			default:
				e := int(name[3] - '0')
				want := math.Pow(0.5, float64(e-d))
				if math.Abs(tr.Prob-want) > 1e-12 {
					t.Errorf("dim%d->dim%d = %v, want %v", d, e, tr.Prob, want)
				}
			}
		}
		// Per-link rate: λ0 N / (2(N-1)).
		wantRate := 0.003 * n / (2 * (n - 1))
		if math.Abs(c.PerLinkRate-wantRate) > 1e-15 {
			t.Errorf("dim%d rate = %v, want %v", d, c.PerLinkRate, wantRate)
		}
	}
	inj := cm.Classes[classID(cm, "inject")]
	for _, tr := range inj.Out {
		name := cm.Classes[tr.To].Name
		d := int(name[3] - '0')
		want := math.Pow(2, float64(dims-d-1)) / (n - 1)
		if math.Abs(tr.Prob-want) > 1e-9 {
			t.Errorf("inject->dim%d = %v, want %v", d, tr.Prob, want)
		}
	}
}

func TestHypercubeModelZeroLoad(t *testing.T) {
	for _, dims := range []int{1, 3, 6, 8} {
		m := MustHypercubeModel(dims, 32, core.Options{})
		lat, err := m.Latency(0)
		if err != nil {
			t.Fatal(err)
		}
		want := 32 + m.AvgDist() - 1
		if math.Abs(lat.Total-want) > 1e-9 {
			t.Errorf("dims=%d: L(0) = %v, want %v", dims, lat.Total, want)
		}
	}
}

func TestHypercubeAvgDistMatchesTopology(t *testing.T) {
	for _, dims := range []int{2, 4, 6, 8} {
		m := MustHypercubeModel(dims, 16, core.Options{})
		hc := topology.MustHypercube(dims)
		if math.Abs(m.AvgDist()-hc.AvgDistance()) > 1e-9 {
			t.Errorf("dims=%d: model D̄=%v, topology D̄=%v", dims, m.AvgDist(), hc.AvgDistance())
		}
	}
}

func TestHypercubeLatencyMonotoneAndSaturates(t *testing.T) {
	m := MustHypercubeModel(8, 16, core.Options{})
	sat, err := m.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat > 2 {
		t.Fatalf("saturation = %v flits/cycle, implausible", sat)
	}
	prev := 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		lat, err := m.Latency(frac * sat / 16)
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if lat.Total <= prev {
			t.Errorf("latency not increasing at %v", frac)
		}
		prev = lat.Total
	}
	if _, err := m.Latency(1.5 * sat / 16); !errors.Is(err, core.ErrUnstable) {
		t.Errorf("above saturation: %v, want ErrUnstable", err)
	}
}

func TestTorusSaturationDecreasesWithRadix(t *testing.T) {
	// Larger k means more hops per link and earlier saturation per node.
	prev := math.Inf(1)
	for _, k := range []int{2, 4, 8} {
		m := MustTorusModel(k, 2, 16, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sat >= prev {
			t.Errorf("k=%d: saturation %v not below smaller radix %v", k, sat, prev)
		}
		prev = sat
	}
}

func TestTorusNames(t *testing.T) {
	if got := MustTorusModel(4, 3, 16, core.Options{}).Name(); got != "torus-4ary3cube/s=16" {
		t.Errorf("Name = %q", got)
	}
	hm := MustHypercubeModel(8, 16, core.Options{})
	if got := hm.Name(); got != "hcube-256/s=16" {
		t.Errorf("Name = %q", got)
	}
	if hm.NumProcessors() != 256 {
		t.Errorf("NumProcessors = %d", hm.NumProcessors())
	}
	if hm.MsgFlits() != 16 {
		t.Errorf("MsgFlits = %v", hm.MsgFlits())
	}
}

func TestTorusNegativeRateRejected(t *testing.T) {
	m := MustTorusModel(4, 2, 16, core.Options{})
	if _, err := m.Latency(-1); err == nil {
		t.Error("accepted negative rate")
	}
}

func TestTorusHopsPerDimExact(t *testing.T) {
	// Brute-force E[hops per dim | dst != src] on a small torus.
	const k, dims = 4, 2
	m := MustTorusModel(k, dims, 16, core.Options{})
	n := k * k
	var sum float64
	var count int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			// Unidirectional ring distance in dimension 0.
			d0 := ((dst % k) - (src % k) + k) % k
			sum += float64(d0)
			count++
		}
	}
	want := sum / float64(count)
	if math.Abs(m.net.hopsPerDim()-want) > 1e-12 {
		t.Errorf("hopsPerDim = %v, enumeration gives %v", m.net.hopsPerDim(), want)
	}
}

// TestSaturationCausePerFamily pins what SaturationLoad reports for each
// family, probed just below the reported point, at (1 − 10⁻⁶) of it. On
// the fat-tree and the hypercube it is the Eq. 26 crossing: λ₀·x̄₀₁ has
// reached 1 (0.999 and 1.000). On a k-ary n-cube with k >= 3 the channel
// graph is cyclic, and the reported point is where its fixed point stops
// converging, well short of the crossing: λ₀·x̄₀₁ reads 0.37 (4-ary
// 3-cube), 0.61 (3-ary 3-cube), 0.14 (8-ary 2-cube) and 0.064 (16-ary
// 2-cube).
func TestSaturationCausePerFamily(t *testing.T) {
	const s = 16
	var opt core.Options
	cases := []struct {
		name     string
		m        *Model
		crossing bool // the reported point is the Eq. 26 crossing
	}{
		{"bft-1024", &MustFatTreeModel(1024, s, opt).Model, true},
		{"6-cube", &MustHypercubeModel(6, s, opt).Model, true},
		{"4-ary 3-cube", &MustTorusModel(4, 3, s, opt).Model, false},
		{"3-ary 3-cube", &MustTorusModel(3, 3, s, opt).Model, false},
		{"8-ary 2-cube", &MustTorusModel(8, 2, s, opt).Model, false},
		{"16-ary 2-cube", &MustTorusModel(16, 2, s, opt).Model, false},
	}
	for _, c := range cases {
		sat, err := c.m.SaturationLoad()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lambda := (1 - 1e-6) * sat / s
		lat, saturated, err := c.m.Predict(lambda)
		if err != nil || saturated {
			t.Fatalf("%s: just below the reported point the model is saturated (%v, %v)", c.name, saturated, err)
		}
		prod := lambda * lat.ServiceInj
		if c.crossing && prod < 0.99 || !c.crossing && prod > 0.7 {
			t.Errorf("%s: λ₀·x̄₀₁ = %.3f just below the reported saturation; want >= 0.99 at an Eq. 26 crossing, <= 0.7 where the fixed point stops converging", c.name, prod)
		}
	}
}

// TestTorusSaturationSearchPinned pins the Eq. 26 search on the bench's
// four torus curves: the saturation load to the last bit, the damped
// sweeps the search runs (the analytic_fixedpoint_iterations_total delta)
// and its probes. Any change to the sweep path fails here until the values
// are regenerated for a new solver epoch.
func TestTorusSaturationSearchPinned(t *testing.T) {
	for _, c := range []struct {
		k, dims        int
		flits          float64
		sat            float64
		sweeps, probes int64
	}{
		{4, 3, 16, 0.14976534028320315, 173_136, 48},
		{4, 3, 32, 0.14976525043945316, 174_744, 47},
		{4, 4, 16, 0.13074221547851567, 167_096, 48},
		{4, 4, 32, 0.13074214819335941, 167_993, 47},
	} {
		m := MustTorusModel(c.k, c.dims, c.flits, core.Options{})
		sweeps, probes := fixedPointIters.Load(), satProbes.Load()
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		sweeps, probes = fixedPointIters.Load()-sweeps, satProbes.Load()-probes
		if math.Float64bits(sat) != math.Float64bits(c.sat) || sweeps != c.sweeps || probes != c.probes {
			t.Errorf("%s: saturation %v after %d sweeps in %d probes, pinned %v, %d, %d",
				m.Name(), sat, sweeps, probes, c.sat, c.sweeps, c.probes)
		}
	}
}

// TestCyclicSaturationIsTheSweepBudget: on a cyclic channel graph the
// saturation the Eq. 26 search reports is where the damped iteration
// first needs more than its sweep budget. A hair below it the iteration
// still converges, in nearly the whole budget; a hair above it runs the
// whole budget out and is declared unstable. The point is the budget's
// boundary, not a property of the model.
func TestCyclicSaturationIsTheSweepBudget(t *testing.T) {
	const budget = 10_000
	ws := core.AcquireWorkspace()
	defer ws.Release()
	for _, c := range []struct{ k, dims int }{{4, 2}, {4, 3}, {4, 4}, {3, 3}, {8, 2}, {16, 2}} {
		m := MustTorusModel(c.k, c.dims, 16, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		m.bind(ws, sat*(1-1e-8)/m.msgFlits)
		if stable, err := ws.Stable(m.opt); !stable || err != nil || ws.Iterations < budget*99/100 {
			t.Errorf("%s just below saturation: stable=%v (%v) after %d sweeps, want convergence within the last 1%% of the budget",
				m.Name(), stable, err, ws.Iterations)
		}
		m.bind(ws, sat*(1+1e-8)/m.msgFlits)
		if stable, err := ws.Stable(m.opt); stable || err != nil || ws.Iterations != budget {
			t.Errorf("%s just above saturation: stable=%v (%v) after %d sweeps, want unstable at exactly %d",
				m.Name(), stable, err, ws.Iterations, budget)
		}
	}
}
