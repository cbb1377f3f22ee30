package bounds_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func TestEnvelopeApplicability(t *testing.T) {
	lambda0 := 0.01
	cases := []struct {
		name  string
		w     *workload.Spec
		burst float64
		ok    bool
	}{
		{"nil is the paper's workload", nil, 1, true},
		{"default spec", &workload.Spec{Name: "steady"}, 1, true},
		{"explicit poisson", &workload.Spec{Process: workload.ProcessPoisson}, 1, true},
		{"mmpp on-off", &workload.Spec{Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
			1 + lambda0*3*200, true},
		{"gamma has no envelope", &workload.Spec{Process: workload.ProcessGamma, Shape: 0.5}, 0, false},
		{"weibull has no envelope", &workload.Spec{Process: workload.ProcessWeibull, Shape: 0.5}, 0, false},
		{"trace replay has no envelope", &workload.Spec{Trace: "t.ndjson"}, 0, false},
		{"hotspot breaks symmetry", &workload.Spec{Pattern: workload.PatternHotspot, Hot: []int{0}, HotFrac: 0.3}, 0, false},
		{"ramp mix breaks symmetry", &workload.Spec{Mix: workload.MixRamp, RampRatio: 4}, 0, false},
	}
	for _, tc := range cases {
		burst, ok := bounds.Envelope(tc.w, lambda0)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && math.Abs(burst-tc.burst) > 1e-12 {
			t.Errorf("%s: burst=%v, want %v", tc.name, burst, tc.burst)
		}
	}
}

// TestBoundDominatesModel sweeps the paper's machine sizes and message
// lengths: at every stable operating point the worst-case bound must
// sit above the model's mean latency (Eq. 25), and a bursty MMPP
// envelope must only push it higher.
func TestBoundDominatesModel(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, s := range []int{16, 32, 64} {
			m, err := analytic.NewFatTreeModel(n, float64(s), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.2, 0.5, 0.8, 0.95} {
				lambda0 := frac * sat / float64(s)
				lat, err := m.Latency(lambda0)
				if err != nil {
					t.Fatalf("N=%d s=%d frac=%.2f: model: %v", n, s, frac, err)
				}
				rep, err := bounds.Compute(m, lambda0, 1)
				if err != nil {
					t.Fatalf("N=%d s=%d frac=%.2f: bound: %v", n, s, frac, err)
				}
				if rep.Total < lat.Total {
					t.Errorf("N=%d s=%d frac=%.2f: bound %.3f < model mean %.3f",
						n, s, frac, rep.Total, lat.Total)
				}
				burst := 1 + lambda0*3*200 // the bursty builtin's MMPP envelope
				brep, err := bounds.Compute(m, lambda0, burst)
				if err != nil {
					t.Fatalf("N=%d s=%d frac=%.2f: bursty bound: %v", n, s, frac, err)
				}
				if brep.Total < rep.Total {
					t.Errorf("N=%d s=%d frac=%.2f: bursty bound %.3f < poisson bound %.3f",
						n, s, frac, brep.Total, rep.Total)
				}
				if rep.MaxBacklog <= 0 || len(rep.Hops) != 2*m.Levels() {
					t.Errorf("N=%d s=%d frac=%.2f: degenerate report: %d hops, backlog %.1f",
						n, s, frac, len(rep.Hops), rep.MaxBacklog)
				}
			}
		}
	}
}

// TestInstabilityVerdictAgrees pins the bound's unbounded verdict to the
// model's stability region: past saturation both refuse with
// core.IsUnstable, below it neither does.
func TestInstabilityVerdictAgrees(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		m, err := analytic.NewFatTreeModel(n, 16, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.5, 0.9, 1.05, 1.5} {
			lambda0 := frac * sat / 16
			_, merr := m.Latency(lambda0)
			_, berr := bounds.Compute(m, lambda0, 1)
			if core.IsUnstable(merr) != core.IsUnstable(berr) {
				t.Errorf("N=%d frac=%.2f: model unstable=%v, bound unstable=%v",
					n, frac, core.IsUnstable(merr), core.IsUnstable(berr))
			}
			if frac < 1 && berr != nil {
				t.Errorf("N=%d frac=%.2f: unexpected bound error: %v", n, frac, berr)
			}
		}
	}
}

// TestBoundDominatesSim runs the Figure 3 grid shape at CI scale with
// all three backends — steady Poisson and the bursty builtin MMPP
// workload — and requires the bound to dominate both the analytic mean
// and the measured sim mean at every stable cell, with the unbounded
// verdict exactly where the model saturates.
func TestBoundDominatesSim(t *testing.T) {
	spec := sweep.Spec{
		Name:       "bounds-domination",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{8, 16},
		Workloads: []workload.Spec{
			{Name: "steady"},
			{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		},
		Loads:    sweep.LoadSpec{Fracs: []float64{0.3, 0.6, 0.85, 1.05}},
		Backends: []string{sweep.BackendModel, sweep.BackendSim, sweep.BackendBounds},
		WithSim:  true,
		Budget:   sweep.Budget{Warmup: 300, Measure: 3000, Seed: 7},
	}
	res, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	bounded := 0
	for _, r := range res.Rows {
		if r.BoundNA {
			t.Errorf("%s: bound n/a on a uniform BFT cell", r.Scenario.Key())
			continue
		}
		// The steady-state model is NA on MMPP cells (no ModelSaturated
		// verdict there), so the agreement check covers evaluated cells.
		if !r.ModelNA && r.ModelSaturated != r.BoundUnbounded {
			t.Errorf("%s: model saturated=%v but bound unbounded=%v",
				r.Scenario.Key(), r.ModelSaturated, r.BoundUnbounded)
		}
		if r.BoundUnbounded {
			continue
		}
		bounded++
		if math.IsNaN(r.BoundMax) {
			t.Errorf("%s: stable cell without a bound", r.Scenario.Key())
			continue
		}
		if !math.IsNaN(r.Model) && r.BoundMax < r.Model {
			t.Errorf("%s: bound %.3f < model mean %.3f", r.Scenario.Key(), r.BoundMax, r.Model)
		}
		if !math.IsNaN(r.Sim) && !r.SimSaturated && r.BoundMax < r.Sim {
			t.Errorf("%s: bound %.3f < sim mean %.3f", r.Scenario.Key(), r.BoundMax, r.Sim)
		}
	}
	if bounded == 0 {
		t.Fatal("no bounded cells — the grid never exercised the calculus")
	}
}

// TestBackendEvaluateAllocs: on a warm backend a bounded cell and a
// bound_na cell allocate nothing — the composition reads its stats into a
// stack buffer, keeps no hop rows, and the untraced span boxes no
// attribute.
func TestBackendEvaluateAllocs(t *testing.T) {
	ctx := context.Background()
	b := bounds.New(eval.NewAnalyticBackend())
	bounded := eval.Scenario{
		Topology:   eval.Topology{Family: eval.FamilyBFT, Size: 1024},
		MsgFlits:   16,
		Load:       eval.Load{Frac: true, Value: 0.5},
		WithBounds: true,
	}
	na := bounded
	na.Topology = eval.Topology{Family: eval.FamilyHypercube, Size: 6}
	for _, c := range []struct {
		name string
		sc   eval.Scenario
		want func(eval.Point) bool
	}{
		{"bounded", bounded, func(pt eval.Point) bool { return !math.IsNaN(pt.BoundMax) && !pt.BoundUnbounded }},
		{"bound_na", na, func(pt eval.Point) bool { return pt.BoundNA }},
	} {
		if pt, err := b.Evaluate(ctx, c.sc); err != nil || !c.want(pt) {
			t.Fatalf("%s: %+v, %v", c.name, pt, err)
		}
		budget := 0.0
		if race.Enabled {
			budget = 16 // sync.Pool drops Puts under the detector
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := b.Evaluate(ctx, c.sc); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("%s cell: Evaluate allocates %v times, want %v", c.name, got, budget)
		}
	}
}

// TestModelBoundsRunBuildsEachModelOnce: the calculus composes over the
// AnalyticBackend's memoized paper model, which is a view of the one
// network per topology instance the process builds, so a model,bounds
// run over 3 sizes × 2 message lengths builds at most one model per size
// and no second copy for the bounds, and a second fresh Runner builds
// none.
func TestModelBoundsRunBuildsEachModelOnce(t *testing.T) {
	spec := sweep.Spec{
		Name:       "bounds-models",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64, 256}}},
		MsgFlits:   []int{16, 32},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.2, 0.5, 0.8}},
		Backends:   []string{sweep.BackendModel, sweep.BackendBounds},
	}
	for i, most := range []int64{3, 0} {
		before := obs.Counters()["analytic_models_built_total"]
		res, err := sweep.NewRunner().Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if math.IsNaN(r.BoundMax) || r.BoundNA {
				t.Fatalf("%s: no bound: %+v", r.Scenario.Key(), r.Cell)
			}
		}
		if got := obs.Counters()["analytic_models_built_total"] - before; got > most {
			t.Errorf("Runner %d: a model,bounds run over 3×2 fat-tree curves built %d models, want at most %d", i+1, got, most)
		}
	}
}

// TestBackendEvaluate pins the Evaluator contract: scenarios without
// WithBounds pass through untouched, non-BFT families and
// envelope-less workloads are BoundNA, and loads past stability come
// back unbounded rather than failing the sweep.
func TestBackendEvaluate(t *testing.T) {
	ctx := context.Background()
	ab := eval.NewAnalyticBackend()
	b := bounds.New(ab)
	if got := b.Name(); got != "bounds" {
		t.Fatalf("Name() = %q", got)
	}
	base := eval.Scenario{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 16},
		MsgFlits: 8,
		Load:     eval.Load{Value: 0.05},
	}

	pt, err := b.Evaluate(ctx, base) // WithBounds unset
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(pt.BoundMax) || pt.BoundNA || pt.BoundUnbounded {
		t.Fatalf("opt-out scenario got a bound verdict: %+v", pt)
	}

	sc := base
	sc.WithBounds = true
	pt, err = b.Evaluate(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.BoundMax) || pt.BoundNA || pt.BoundUnbounded {
		t.Fatalf("stable BFT cell not bounded: %+v", pt)
	}

	frac := sc
	frac.Load = eval.Load{Frac: true, Value: 0.5}
	pt, err = b.Evaluate(ctx, frac)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.BoundMax) {
		t.Fatalf("fractional load not resolved through the anchor: %+v", pt)
	}

	cube := sc
	cube.Topology = eval.Topology{Family: eval.FamilyHypercube, Size: 4}
	pt, err = b.Evaluate(ctx, cube)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.BoundNA {
		t.Fatalf("hypercube cell should be BoundNA: %+v", pt)
	}

	noEnv := sc
	noEnv.Workload = &workload.Spec{Process: workload.ProcessGamma, Shape: 0.5}
	pt, err = b.Evaluate(ctx, noEnv)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.BoundNA {
		t.Fatalf("gamma workload should be BoundNA: %+v", pt)
	}

	hot := sc
	hot.Load = eval.Load{Value: 10} // far past stability
	pt, err = b.Evaluate(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.BoundUnbounded || !math.IsInf(pt.BoundMax, 1) {
		t.Fatalf("unstable cell should be unbounded: %+v", pt)
	}
}
