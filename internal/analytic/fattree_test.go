package analytic

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func TestFatTreeModelRejectsBadConfigs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 20, 100} {
		if _, err := NewFatTreeModel(n, 16, core.Options{}); err == nil {
			t.Errorf("accepted N=%d", n)
		}
	}
	if _, err := NewFatTreeModel(64, 0, core.Options{}); err == nil {
		t.Error("accepted zero message length")
	}
	if _, err := NewFatTreeModel(64, -4, core.Options{}); err == nil {
		t.Error("accepted negative message length")
	}
}

func TestFatTreeUpProbMatchesPaperEq12(t *testing.T) {
	m := MustFatTreeModel(1024, 16, core.Options{})
	// P↑_l = (4^5 - 4^l)/(4^5 - 1).
	for l := 1; l < 5; l++ {
		want := (1024.0 - math.Pow(4, float64(l))) / 1023.0
		if got := m.net.upProb[l]; math.Abs(got-want) > 1e-12 {
			t.Errorf("P↑(%d) = %v, want %v", l, got, want)
		}
	}
	// At the root everything must go down.
	if got := m.net.upProb[5]; got != 0 {
		t.Errorf("P↑(n) = %v, want 0", got)
	}
}

func TestFatTreeUpRateMatchesPaperEq14(t *testing.T) {
	m := MustFatTreeModel(1024, 16, core.Options{})
	const lambda0 = 0.001
	if got := m.net.upRate(0, lambda0); got != lambda0 {
		t.Errorf("λ(0,1) = %v, want λ0", got)
	}
	for l := 1; l < 5; l++ {
		want := lambda0 * (1024 - math.Pow(4, float64(l))) / 1023 * math.Pow(2, float64(l))
		if got := m.net.upRate(l, lambda0); math.Abs(got-want) > 1e-15 {
			t.Errorf("λ(%d,%d+1) = %v, want %v", l, l, got, want)
		}
	}
}

// Flow conservation: messages going up past level l = messages coming down
// past level l, and the per-link rates match the link counts of §3.2.
func TestFatTreeRateConservation(t *testing.T) {
	m := MustFatTreeModel(256, 32, core.Options{})
	const lambda0 = 0.0005
	total := 256 * lambda0
	for l := 1; l < m.Levels(); l++ {
		links := math.Ldexp(256, -l) // §3.2: 4^n/2^l links from level l to l+1
		gotTotal := m.net.upRate(l, lambda0) * links
		wantTotal := total * m.net.upProb[l]
		if math.Abs(gotTotal-wantTotal) > 1e-12 {
			t.Errorf("level %d: aggregate up rate %v, want %v", l, gotTotal, wantTotal)
		}
	}
}

func TestFatTreeZeroLoadLatencyIsUnloadedLatency(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		for _, s := range []float64{16, 32, 64} {
			m := MustFatTreeModel(n, s, core.Options{})
			lat, err := m.Latency(0)
			if err != nil {
				t.Fatalf("N=%d s=%v: %v", n, s, err)
			}
			want := s + m.AvgDist() - 1
			if math.Abs(lat.Total-want) > 1e-9 {
				t.Errorf("N=%d s=%v: L(0) = %v, want s + D̄ - 1 = %v", n, s, lat.Total, want)
			}
			if lat.WaitInj != 0 {
				t.Errorf("N=%d s=%v: W(0) = %v, want 0", n, s, lat.WaitInj)
			}
			if lat.ServiceInj != s {
				t.Errorf("N=%d s=%v: x(0) = %v, want %v", n, s, lat.ServiceInj, s)
			}
		}
	}
}

func TestFatTreeAvgDistMatchesTopology(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		m := MustFatTreeModel(n, 16, core.Options{})
		ft := topology.MustFatTree(n)
		if math.Abs(m.AvgDist()-ft.AvgDistance()) > 1e-12 {
			t.Errorf("N=%d: model D̄=%v, topology D̄=%v", n, m.AvgDist(), ft.AvgDistance())
		}
	}
}

// The defining cross-check: the closed-form transcription of Eq. 16–25 and
// the generated channel-class graph must produce identical latencies. The
// graph is acyclic, so core resolves it in one ordered pass with the
// closed form's own expressions; they differ only in how the 1/3 of a
// sibling fan-out is rounded. (The paper variant's Latency is the closed
// form.)
func TestFatTreeClosedFormMatchesCoreGraph(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		for _, s := range []float64{16, 32, 64} {
			m := MustFatTreeModel(n, s, core.Options{})
			// Probe from light load to near saturation.
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatalf("N=%d s=%v: saturation: %v", n, s, err)
			}
			for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.85} {
				lambda0 := frac * sat / s
				cf, err1 := m.Latency(lambda0)
				cg, err2 := m.graphLatency(lambda0)
				if err1 != nil || err2 != nil {
					t.Fatalf("N=%d s=%v frac=%v: closed err=%v, core err=%v",
						n, s, frac, err1, err2)
				}
				if relDiff(cf.Total, cg.Total) > 1e-12 {
					t.Errorf("N=%d s=%v frac=%v: closed-form L=%v, core-graph L=%v",
						n, s, frac, cf.Total, cg.Total)
				}
				if relDiff(cf.ServiceInj, cg.ServiceInj) > 1e-12 {
					t.Errorf("N=%d s=%v frac=%v: closed x01=%v, core x01=%v",
						n, s, frac, cf.ServiceInj, cg.ServiceInj)
				}
				if relDiff(cf.WaitInj, cg.WaitInj) > 1e-12 {
					t.Errorf("N=%d s=%v frac=%v: closed W01=%v, core W01=%v",
						n, s, frac, cf.WaitInj, cg.WaitInj)
				}
			}
		}
	}
}

// FuzzClosedFormMatchesGraph extends the cross-check above to any machine
// from 4 to 4096 processors, any message length up to 256 flits and any
// load up to 10× saturation: the closed form and the channel graph agree
// on the verdict, on the unstable class and its ρ, and on the latency, all
// to round-off. The seeds are a 6 × 6 × 6 grid of those three.
func FuzzClosedFormMatchesGraph(f *testing.F) {
	for level := uint8(0); level < 6; level++ {
		for _, s := range []uint16{1, 4, 16, 32, 64, 256} {
			for _, frac := range []float64{0.1, 0.5, 0.9, 0.98, 2, 10} {
				f.Add(level, s-1, frac)
			}
		}
	}
	f.Fuzz(func(t *testing.T, level uint8, flits uint16, frac float64) {
		frac = math.Abs(math.Mod(frac, 10))
		if math.IsNaN(frac) {
			t.Skip()
		}
		numProc, s := 4<<(2*(level%6)), float64(1+flits%256)
		m := MustFatTreeModel(numProc, s, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		lambda0 := frac * sat / s
		cf, errC := m.Latency(lambda0)
		cg, errG := m.graphLatency(lambda0)
		if (errC == nil) != (errG == nil) {
			t.Fatalf("%s at %v× saturation: closed form %v, graph %v", m.Name(), frac, errC, errG)
		}
		if errC != nil {
			var uc, ug *core.UnstableError
			if !errors.As(errC, &uc) || !errors.As(errG, &ug) ||
				uc.Class != ug.Class+"@"+m.Name() || relDiff(uc.Rho, ug.Rho) > 1e-12 {
				t.Fatalf("%s at %v× saturation: closed form %v, graph %v", m.Name(), frac, errC, errG)
			}
			return
		}
		if relDiff(cf.Total, cg.Total) > 1e-12 {
			t.Fatalf("%s at %v× saturation: closed form L=%v, graph L=%v", m.Name(), frac, cf.Total, cg.Total)
		}
	})
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func fmtDown(l int) string {
	return "down<" + string(rune('0'+l)) + "," + string(rune('0'+l-1)) + ">"
}

func TestFatTreeLatencyMonotoneInLoad(t *testing.T) {
	m := MustFatTreeModel(1024, 16, core.Options{})
	sat, err := m.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, frac := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95} {
		lat, err := m.Latency(frac * sat / 16)
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if lat.Total <= prev {
			t.Errorf("latency not increasing at frac %v: %v after %v", frac, lat.Total, prev)
		}
		prev = lat.Total
	}
}

func TestFatTreeUnstableAboveSaturation(t *testing.T) {
	m := MustFatTreeModel(1024, 16, core.Options{})
	sat, err := m.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	// At twice the saturation load the model must refuse.
	_, err = m.Latency(2 * sat / 16)
	if !errors.Is(err, core.ErrUnstable) {
		t.Fatalf("above saturation: err = %v, want ErrUnstable", err)
	}
	// Just below saturation the latency is finite but large.
	lat, err := m.Latency(0.95 * sat / 16)
	if err != nil {
		t.Fatalf("at 95%% of saturation: %v", err)
	}
	unloaded := 16 + m.AvgDist() - 1
	if lat.Total < 1.5*unloaded {
		t.Errorf("latency near saturation %v should clearly exceed unloaded %v", lat.Total, unloaded)
	}
}

// serviceInj is the injection-channel service time x̄₀₁(λ₀), the
// quantity whose crossing with 1/λ₀ defines saturation (Eq. 26).
func serviceInj(m *FatTreeModel, lambda0 float64) (float64, error) {
	lat, err := m.Latency(lambda0)
	return lat.ServiceInj, err
}

// The saturation condition itself (Eq. 26): the reported load brackets the
// crossing of λ0·x̄01 with 1. The product is extremely steep near the
// operating point (the top-level waits scale like 1/(1−ρ)), so we assert
// the bracket rather than closeness to 1 from either side.
func TestFatTreeSaturationCondition(t *testing.T) {
	for _, s := range []float64{16, 64} {
		m := MustFatTreeModel(256, s, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		lambdaSat := sat / s
		x, err := serviceInj(m, 0.999*lambdaSat)
		if err != nil {
			t.Fatalf("s=%v: just below saturation: %v", s, err)
		}
		if prod := 0.999 * lambdaSat * x; prod >= 1 {
			t.Errorf("s=%v: λ·x̄ = %v just below saturation, want < 1", s, prod)
		}
		// Just above: either λ·x̄ >= 1 or the model is already unstable.
		x, err = serviceInj(m, 1.001*lambdaSat)
		if err == nil {
			if prod := 1.001 * lambdaSat * x; prod < 1 {
				t.Errorf("s=%v: λ·x̄ = %v just above saturation, want >= 1", s, prod)
			}
		} else if !errors.Is(err, core.ErrUnstable) {
			t.Fatalf("s=%v: unexpected error above saturation: %v", s, err)
		}
	}
}

// Paper sanity anchor: Figure 3 shows the 1024-processor fat-tree
// saturating around 0.04–0.05 flits/cycle/processor. The model must land
// in that neighbourhood.
func TestFatTreeSaturationInPaperRange(t *testing.T) {
	for _, c := range []struct {
		s      float64
		lo, hi float64
	}{
		{16, 0.025, 0.07},
		{32, 0.025, 0.07},
		{64, 0.025, 0.07},
	} {
		m := MustFatTreeModel(1024, c.s, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		if sat < c.lo || sat > c.hi {
			t.Errorf("s=%v: saturation %v flits/cycle outside paper range [%v, %v]",
				c.s, sat, c.lo, c.hi)
		}
	}
}

// Saturation per processor must shrink as the machine grows: the top
// levels concentrate contention.
func TestFatTreeSaturationDecreasesWithSize(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{16, 64, 256, 1024} {
		m := MustFatTreeModel(n, 16, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		if sat >= prev {
			t.Errorf("N=%d: saturation %v not below larger machine's %v", n, sat, prev)
		}
		prev = sat
	}
}

func TestFatTreeAblationsShiftTheModel(t *testing.T) {
	base := MustFatTreeModel(1024, 32, core.Options{})
	sat, err := base.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	lambda0 := 0.6 * sat / 32
	latBase, err := base.Latency(lambda0)
	if err != nil {
		t.Fatal(err)
	}

	// A1: dropping the wormhole blocking correction overestimates waits.
	noBlock := MustFatTreeModel(1024, 32, core.Options{NoBlockingCorrection: true})
	latNoBlock, err := noBlock.Latency(lambda0)
	if err != nil {
		t.Fatal(err)
	}
	if latNoBlock.Total <= latBase.Total {
		t.Errorf("A1: no-correction L=%v should exceed base L=%v",
			latNoBlock.Total, latBase.Total)
	}

	// A2: two independent M/G/1 up-links wait longer than one M/G/2 pair.
	single := MustFatTreeModel(1024, 32, core.Options{SingleServerGroups: true})
	latSingle, err := single.Latency(lambda0)
	if err != nil {
		t.Fatal(err)
	}
	if latSingle.Total <= latBase.Total {
		t.Errorf("A2: single-server L=%v should exceed base L=%v",
			latSingle.Total, latBase.Total)
	}

	// Erratum: feeding M/G/2 the per-link rate underestimates waits.
	noPair := MustFatTreeModel(1024, 32, core.Options{NoPairRateCorrection: true})
	latNoPair, err := noPair.Latency(lambda0)
	if err != nil {
		t.Fatal(err)
	}
	if latNoPair.Total >= latBase.Total {
		t.Errorf("erratum ablation: uncorrected L=%v should be below base L=%v",
			latNoPair.Total, latBase.Total)
	}
}

func TestFatTreeChannelStats(t *testing.T) {
	m := MustFatTreeModel(64, 16, core.Options{})
	stats, err := m.ChannelStats(nil, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2*m.Levels() {
		t.Fatalf("stats rows = %d, want %d", len(stats), 2*m.Levels())
	}
	byName := map[string]ChannelStat{}
	for _, st := range stats {
		byName[st.Name] = st
		if st.Rho < 0 || st.Rho >= 1 {
			t.Errorf("%s: rho = %v", st.Name, st.Rho)
		}
		if st.Service < 16 {
			t.Errorf("%s: service %v below transmission time", st.Name, st.Service)
		}
		if st.Wait < 0 {
			t.Errorf("%s: negative wait", st.Name)
		}
	}
	if byName["down<1,0>"].Service != 16 {
		t.Errorf("ejection service = %v, want 16", byName["down<1,0>"].Service)
	}
	if byName["up<0,1>"].Servers != 1 {
		t.Error("injection channel must be single-server")
	}
	if byName["up<1,2>"].Servers != 2 {
		t.Error("up pair must be two-server")
	}
	// Down-path service times grow with the level: x̄_{l+1,l} adds the
	// blocked wait at each extra hop (Eq. 18). (Up-path service times are
	// mixtures over turn-around levels and are not strictly ordered.)
	for l := 2; l <= m.Levels(); l++ {
		lo := byName[fmtDown(l-1)]
		hi := byName[fmtDown(l)]
		if hi.Service < lo.Service {
			t.Errorf("x(%s)=%v should be >= x(%s)=%v", hi.Name, hi.Service, lo.Name, lo.Service)
		}
	}
	// Unstable load must error.
	if _, err := m.ChannelStats(nil, 10); !errors.Is(err, core.ErrUnstable) {
		t.Errorf("ChannelStats at absurd load: %v, want ErrUnstable", err)
	}
}

func TestFatTreeSmallestMachineN4(t *testing.T) {
	// n=1: single switch, every message is inj -> eject-to-sibling.
	m := MustFatTreeModel(4, 16, core.Options{})
	lat, err := m.Latency(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if lat.AvgDist != 2 {
		t.Errorf("D̄ = %v, want 2 for N=4", lat.AvgDist)
	}
	// Cross-check against the core graph at several loads.
	for _, l0 := range []float64{0.001, 0.01, 0.02} {
		cf, err1 := m.Latency(l0)
		cg, err2 := m.graphLatency(l0)
		if err1 != nil || err2 != nil {
			t.Fatalf("λ0=%v: %v / %v", l0, err1, err2)
		}
		if relDiff(cf.Total, cg.Total) > 1e-12 {
			t.Errorf("λ0=%v: closed %v vs core %v", l0, cf.Total, cg.Total)
		}
	}
}

func TestFatTreeModelName(t *testing.T) {
	m := MustFatTreeModel(256, 32, core.Options{})
	if m.Name() != "bft-256/s=32" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.NumProcessors() != 256 || m.Levels() != 4 || m.MsgFlits() != 32 {
		t.Error("accessors broken")
	}
}

func TestFatTreeNegativeRateRejected(t *testing.T) {
	m := MustFatTreeModel(64, 16, core.Options{})
	if _, err := m.Latency(-0.1); err == nil {
		t.Error("accepted negative rate")
	}
	if _, err := m.Latency(math.NaN()); err == nil {
		t.Error("accepted NaN rate")
	}
	ablated := MustFatTreeModel(64, 16, core.Options{NoBlockingCorrection: true})
	if _, err := ablated.Latency(-0.1); err == nil {
		t.Error("core path accepted negative rate")
	}
}
