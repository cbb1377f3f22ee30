package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/topology"
)

// These integration tests reproduce the paper's central claim (§3.6): the
// analytical model tracks flit-level simulation closely over a wide range
// of load. Tolerances are loose enough for CI-speed runs but tight enough
// that a wrong blocking correction, a mis-wired topology, or a missing 2λ
// in the M/G/2 calls fails clearly.

func runBFT(t *testing.T, numProc, flits int, load float64, seed uint64) *Result {
	t.Helper()
	cfg := Config{
		Net:           topology.MustFatTree(numProc),
		MsgFlits:      flits,
		Seed:          seed,
		WarmupCycles:  6000,
		MeasureCycles: 40000,
	}.FlitLoad(load)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestModelTracksSimulationFatTree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison skipped in -short mode")
	}
	model := analytic.MustFatTreeModel(64, 16, core.Options{})
	sat, err := model.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		load := frac * sat
		lat, err := model.Latency(load / 16)
		if err != nil {
			t.Fatalf("model at %.0f%%: %v", frac*100, err)
		}
		res := runBFT(t, 64, 16, load, 42)
		if res.Saturated {
			t.Fatalf("sim saturated at %.0f%% of model saturation", frac*100)
		}
		relErr := math.Abs(res.LatencyMean-lat.Total) / lat.Total
		t.Logf("N=64 s=16 load=%.4f (%.0f%% sat): model=%.2f sim=%.2f±%.2f (err %.1f%%)",
			load, frac*100, lat.Total, res.LatencyMean, res.LatencyCI95, relErr*100)
		tol := 0.10
		if frac >= 0.7 {
			tol = 0.20 // the knee is steep; small rate offsets amplify
		}
		if relErr > tol {
			t.Errorf("load %.4f: model %.2f vs sim %.2f (rel err %.1f%% > %.0f%%)",
				load, lat.Total, res.LatencyMean, relErr*100, tol*100)
		}
		// The decomposition must agree too, not just the total.
		if math.Abs(res.ServiceInjMean-lat.ServiceInj)/lat.ServiceInj > tol {
			t.Errorf("load %.4f: x̄01 model %.2f vs sim %.2f",
				load, lat.ServiceInj, res.ServiceInjMean)
		}
	}
}

func TestModelTracksSimulationHypercube(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison skipped in -short mode")
	}
	model := analytic.MustHypercubeModel(6, 16, core.Options{})
	sat, err := model.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.3, 0.6} {
		load := frac * sat
		lat, err := model.Latency(load / 16)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Net:           topology.MustHypercube(6),
			MsgFlits:      16,
			Seed:          77,
			WarmupCycles:  6000,
			MeasureCycles: 40000,
		}.FlitLoad(load)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(res.LatencyMean-lat.Total) / lat.Total
		t.Logf("hcube-64 s=16 load=%.4f: model=%.2f sim=%.2f (err %.1f%%)",
			load, lat.Total, res.LatencyMean, relErr*100)
		if relErr > 0.15 {
			t.Errorf("load %.4f: model %.2f vs sim %.2f (rel err %.1f%%)",
				load, lat.Total, res.LatencyMean, relErr*100)
		}
	}
}

// Channel utilizations: the simulator's measured busy fractions must match
// the model's per-class ρ (they depend only on the rates and service
// times, so this validates Eq. 14/15 against the actual router).
func TestChannelUtilizationMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison skipped in -short mode")
	}
	const numProc, flits, load = 64, 16, 0.02
	model := analytic.MustFatTreeModel(numProc, flits, core.Options{})
	stats, err := model.ChannelStats(nil, load/flits)
	if err != nil {
		t.Fatal(err)
	}
	res := runBFT(t, numProc, flits, load, 11)

	// Aggregate simulated busy fractions per class.
	net := topology.MustFatTree(numProc)
	type agg struct {
		sum float64
		n   int
	}
	byClass := map[string]*agg{}
	for ch := 0; ch < net.NumChannels(); ch++ {
		name := analytic.FatTreeClassOf(net, topology.ChannelID(ch))
		a := byClass[name]
		if a == nil {
			a = &agg{}
			byClass[name] = a
		}
		a.sum += res.ChannelBusy[ch]
		a.n++
	}
	for _, st := range stats {
		a := byClass[st.Name]
		if a == nil || a.n == 0 {
			t.Fatalf("no simulated channels for class %s", st.Name)
		}
		simRho := a.sum / float64(a.n)
		if math.Abs(simRho-st.Rho) > 0.03+0.15*st.Rho {
			t.Errorf("%s: model rho=%.4f, sim busy=%.4f", st.Name, st.Rho, simRho)
		}
	}
}

// The simulated saturation point must bracket the model's prediction:
// stable clearly below, saturated clearly above.
func TestSimSaturationBracketsModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration comparison skipped in -short mode")
	}
	model := analytic.MustFatTreeModel(64, 16, core.Options{})
	sat, err := model.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	below := runBFT(t, 64, 16, 0.7*sat, 5)
	if below.Saturated {
		t.Errorf("sim saturated at 70%% of model saturation (%v)", 0.7*sat)
	}
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      16,
		Seed:          5,
		WarmupCycles:  6000,
		MeasureCycles: 40000,
		DrainLimit:    20000,
	}.FlitLoad(1.6 * sat)
	above, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !above.Saturated {
		t.Errorf("sim not saturated at 160%% of model saturation (%v); latency %v",
			1.6*sat, above.LatencyMean)
	}
}
