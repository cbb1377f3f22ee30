package plan

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// seedCalib feeds the map synthetic pairs for one policy's bft-64/s=8
// region around 0.6-0.7× saturation (the 50-75% band the calibrated
// plan's operating point lands in), with the model values chosen to
// produce the wanted MAPE against a 100-cycle sim mean.
func seedCalib(t *testing.T, m *calib.Map, policy sim.UpLinkPolicy, models []float64) {
	t.Helper()
	topo := eval.Topology{Family: eval.FamilyBFT, Size: 64}
	sat, err := eval.NewAnalyticBackend().SaturationLoad(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	rels := []float64{0.6, 0.65, 0.7}
	for i, model := range models {
		rel := rels[i%len(rels)]
		sc := eval.Scenario{
			Topology:  topo,
			MsgFlits:  8,
			Policy:    policy,
			Load:      eval.Load{Frac: true, Value: rel},
			LoadIndex: i,
			WithSim:   true,
			Budget:    eval.Budget{Warmup: 100, Measure: 200, Seed: 7},
		}
		pt := eval.NewPoint()
		pt.LoadFlits = rel * sat
		pt.Model = model
		pt.Sim = 100
		if !m.Observe(sc.Key(), pt) {
			t.Fatalf("synthetic cell %d (%s) did not pair", i, policy)
		}
	}
}

func calibPlanSpec() Spec {
	return Spec{
		Name: "calib-gate-test",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{8},
			Policies:   []string{"pairqueue", "randomfixed"},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxUtilization: 0.8},
		Calibration: &calib.Gate{MaxMAPE: 0.1, MinPairs: 2},
		Budget:      eval.Budget{Warmup: 500, Measure: 2000, Seed: 1},
	}
}

// TestCalibrationTrustGate pins the tentpole behaviour: a region the
// map has measured accurate skips its certification sim (trusted), a
// region measured inaccurate is forced through the simulator
// (escalated), and the verdicts land on the candidates and stats.
func TestCalibrationTrustGate(t *testing.T) {
	m := calib.NewMap()
	// pairqueue: model within 2-3% of sim → MAPE ≈ 0.025, trusted at 0.1.
	seedCalib(t, m, sim.PairQueue, []float64{102, 98, 103})
	// randomfixed: model off by ~45% → escalated.
	seedCalib(t, m, sim.RandomFixed, []float64{150, 60, 145})

	planner := NewLocal(nil, WithCalibration(m))
	res, err := planner.Run(context.Background(), calibPlanSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FrontierSize != 2 {
		t.Fatalf("frontier size %d, want 2 (policies tie analytically)", res.Stats.FrontierSize)
	}
	if res.Stats.Trusted != 1 || res.Stats.Escalated != 1 || res.Stats.Uncalibrated != 0 {
		t.Fatalf("verdict stats trusted=%d escalated=%d uncalibrated=%d, want 1/1/0",
			res.Stats.Trusted, res.Stats.Escalated, res.Stats.Uncalibrated)
	}
	if res.Stats.SimEvals != 1 {
		t.Fatalf("sim evals %d, want 1 (trusted region skips its sim)", res.Stats.SimEvals)
	}
	byPolicy := map[string]Candidate{}
	for _, c := range res.Frontier {
		byPolicy[c.Policy] = c
	}
	tr := byPolicy["pairqueue"]
	if tr.CalibVerdict != calib.VerdictTrusted || tr.CalibPairs != 3 || tr.CalibMAPE > 0.1 {
		t.Errorf("pairqueue: verdict %q mape %v pairs %d, want trusted ≤0.1 over 3",
			tr.CalibVerdict, tr.CalibMAPE, tr.CalibPairs)
	}
	if !math.IsNaN(tr.Sim) || tr.Certified {
		t.Errorf("trusted candidate ran a sim anyway (sim=%v certified=%v)", tr.Sim, tr.Certified)
	}
	if !strings.Contains(tr.CertifyNote, "calibration-trusted") {
		t.Errorf("trusted candidate note %q lacks the calibration explanation", tr.CertifyNote)
	}
	es := byPolicy["randomfixed"]
	if es.CalibVerdict != calib.VerdictEscalated || es.CalibMAPE <= 0.1 {
		t.Errorf("randomfixed: verdict %q mape %v, want escalated with MAPE > 0.1",
			es.CalibVerdict, es.CalibMAPE)
	}
	if math.IsNaN(es.Sim) && !es.SimSaturated {
		t.Error("escalated candidate carries no sim evidence")
	}
}

// TestCalibrationGateWithoutMap pins the degraded mode: a calibration
// spec without a map marks every candidate uncalibrated and certifies
// them all through the simulator — never a silent trust.
func TestCalibrationGateWithoutMap(t *testing.T) {
	planner := NewLocal(nil)
	res, err := planner.Run(context.Background(), calibPlanSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Uncalibrated != 2 || res.Stats.Trusted != 0 {
		t.Fatalf("verdict stats trusted=%d uncalibrated=%d, want 0/2", res.Stats.Trusted, res.Stats.Uncalibrated)
	}
	if res.Stats.SimEvals != 2 {
		t.Fatalf("sim evals %d, want 2 (no map means no skips)", res.Stats.SimEvals)
	}
	for _, c := range res.Frontier {
		if c.CalibVerdict != calib.VerdictUncalibrated {
			t.Errorf("candidate %s verdict %q, want uncalibrated", c.Key(), c.CalibVerdict)
		}
	}
}

// TestNoCalibrationSpecLeavesVerdictsEmpty pins backwards
// compatibility: without Spec.Calibration the candidates carry no
// verdicts even when the planner holds a map.
func TestNoCalibrationSpecLeavesVerdictsEmpty(t *testing.T) {
	m := calib.NewMap()
	seedCalib(t, m, sim.PairQueue, []float64{102, 98, 103})
	planner := NewLocal(nil, WithCalibration(m))
	spec := calibPlanSpec()
	spec.Calibration = nil
	res, err := planner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trusted+res.Stats.Escalated+res.Stats.Uncalibrated != 0 {
		t.Fatalf("verdict stats %+v, want all zero without a calibration spec", res.Stats)
	}
	for _, c := range res.Frontier {
		if c.CalibVerdict != "" {
			t.Errorf("candidate %s verdict %q, want empty", c.Key(), c.CalibVerdict)
		}
	}
	if res.Stats.SimEvals != 2 {
		t.Fatalf("sim evals %d, want 2", res.Stats.SimEvals)
	}
}
