package calib

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/sim"
)

var testTopo = eval.Topology{Family: eval.FamilyBFT, Size: 64}

// testCell fabricates a sim-carrying cell at rel×saturation with the
// given model and sim values, returning its cache key and point.
func testCell(t *testing.T, rel float64, loadIdx int, model, simv float64) (string, eval.Point) {
	t.Helper()
	sat := saturation(t)
	sc := eval.Scenario{
		Topology:  testTopo,
		MsgFlits:  8,
		Policy:    sim.PairQueue,
		Load:      eval.Load{Frac: true, Value: rel},
		LoadIndex: loadIdx,
		WithSim:   true,
		Budget:    eval.Budget{Warmup: 100, Measure: 200, Seed: 1},
	}
	pt := eval.NewPoint()
	pt.LoadFlits = rel * sat
	pt.Model = model
	pt.Sim = simv
	return sc.Key(), pt
}

func saturation(t *testing.T) float64 {
	t.Helper()
	sat, err := eval.NewAnalyticBackend().SaturationLoad(testTopo, 8)
	if err != nil {
		t.Fatal(err)
	}
	return sat
}

func TestBandOf(t *testing.T) {
	cases := []struct {
		rel  float64
		want string
	}{
		{0, "<25%"},
		{0.249, "<25%"},
		{0.25, "25-50%"},
		{0.6, "50-75%"},
		{0.75, "75-90%"},
		{0.89, "75-90%"},
		{0.95, "90-100%"},
		{1.0, ">=100%"},
		{1.5, ">=100%"},
		{math.NaN(), BandUnanchored},
		{-0.1, BandUnanchored},
	}
	for _, c := range cases {
		if got := BandOf(c.rel); got != c.want {
			t.Errorf("BandOf(%v) = %q, want %q", c.rel, got, c.want)
		}
	}
}

func TestObserveAccumulatesMetrics(t *testing.T) {
	m := NewMap()
	ctx := context.Background()

	// Two pairs in the 50-75% band: model 10% high, model 10% low.
	k1, p1 := testCell(t, 0.6, 0, 110, 100)
	k2, p2 := testCell(t, 0.7, 1, 180, 200)
	if !m.Observe(ctx, k1, p1) || !m.Observe(ctx, k2, p2) {
		t.Fatal("pairable cells did not pair")
	}
	// Duplicate key: ignored.
	if m.Observe(ctx, k1, p1) {
		t.Error("duplicate key paired twice")
	}
	// Model-only cell: ignored without even entering the seen set.
	mo := eval.NewPoint()
	mo.Model = 12
	if m.Observe(ctx, "family=bft size=64 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false", mo) {
		t.Error("model-only cell paired")
	}
	// Saturated sim: seen (it is sim evidence) but never a pair.
	k3, p3 := testCell(t, 0.99, 2, 400, math.NaN())
	p3.SimSaturated = true
	if m.Observe(ctx, k3, p3) {
		t.Error("saturated cell paired")
	}
	// Unparseable key: counted as a parse error, not a pair.
	bad := eval.NewPoint()
	bad.Model, bad.Sim = 10, 10
	if m.Observe(ctx, "9d5f0c2ab15e44b1a7c3e8d2f6a9b0c4", bad) {
		t.Error("hashed legacy key paired")
	}

	rep := m.Report()
	if rep.Pairs != 2 || len(rep.Regions) != 1 {
		t.Fatalf("report: %d pairs in %d regions, want 2 in 1", rep.Pairs, len(rep.Regions))
	}
	r := rep.Regions[0]
	if r.Band != "50-75%" || r.Topo != "bft-64" || r.Policy != "pairqueue" || r.MsgFlits != 8 {
		t.Fatalf("region %+v has wrong coordinates", r.Region)
	}
	if want := "bft-64/s=8/pairqueue/50-75%"; r.Name != want {
		t.Errorf("region name %q, want %q", r.Name, want)
	}
	if math.Abs(r.MAPE-0.1) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.1", r.MAPE)
	}
	if math.Abs(r.Bias-0.0) > 1e-12 {
		t.Errorf("bias = %v, want 0 (symmetric errors)", r.Bias)
	}
	if math.Abs(r.MaxRelErr-0.1) > 1e-12 {
		t.Errorf("max rel err = %v, want 0.1", r.MaxRelErr)
	}
	if r.Pearson == nil || math.Abs(*r.Pearson-1.0) > 1e-9 {
		t.Errorf("pearson = %v, want 1 (two colinear points)", r.Pearson)
	}
	if rep.WorstMAPE == nil || *rep.WorstMAPE != r.MAPE || rep.WorstRegion != r.Name {
		t.Errorf("worst region %q mape %v, want %q %v", rep.WorstRegion, rep.WorstMAPE, r.Name, r.MAPE)
	}
}

// One mined cell — key parse, saturation lookup, region bucket,
// accumulator update — has an allocation budget; the time per call is
// the ledger's calib.observe_us.
func TestObserveCellAllocs(t *testing.T) {
	const budget = 4 // 3 measured (ParseKey allocates nothing on a valid key); one spare
	const runs = 1000
	keys := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	var pt eval.Point
	for i := range keys {
		keys[i], pt = testCell(t, 0.6, i, 110, 100)
	}
	m := NewMap()
	ctx := context.Background()
	m.ObserveCell(ctx, keys[0], pt) // first cell of the region: memoizes saturation, creates the bucket
	i := 0
	allocs := testing.AllocsPerRun(runs-1, func() {
		i++
		m.ObserveCell(ctx, keys[i], pt)
	})
	if m.Pairs() != runs+1 {
		t.Fatalf("%d of %d cells paired", m.Pairs(), runs+1)
	}
	if allocs > budget {
		t.Errorf("ObserveCell allocates %.0f/op, budget %d", allocs, budget)
	}
}

func TestObserveSplitsBandsAndPolicies(t *testing.T) {
	m := NewMap()
	ctx := context.Background()
	k1, p1 := testCell(t, 0.3, 0, 10, 10)
	k2, p2 := testCell(t, 0.8, 1, 10, 10)
	m.Observe(ctx, k1, p1)
	m.Observe(ctx, k2, p2)
	// Same coordinates, other policy.
	sat := saturation(t)
	sc := eval.Scenario{
		Topology: testTopo, MsgFlits: 8, Policy: sim.RandomFixed,
		Load: eval.Load{Frac: true, Value: 0.3}, WithSim: true,
		Budget: eval.Budget{Warmup: 100, Measure: 200, Seed: 1},
	}
	pt := eval.NewPoint()
	pt.LoadFlits, pt.Model, pt.Sim = 0.3*sat, 10, 10
	m.Observe(ctx, sc.Key(), pt)

	rep := m.Report()
	if len(rep.Regions) != 3 {
		names := make([]string, len(rep.Regions))
		for i, r := range rep.Regions {
			names[i] = r.Name
		}
		t.Fatalf("got %d regions %v, want 3", len(rep.Regions), names)
	}
}

func TestVerdict(t *testing.T) {
	m := NewMap()
	ctx := context.Background()
	for i, mv := range []float64{102, 98, 103} { // MAPE ≈ 0.024
		k, p := testCell(t, 0.6, i, mv, 100)
		m.Observe(ctx, k, p)
	}
	region := RegionFor(testTopo, 8, "pairqueue", "", 0.6)
	gate := Gate{MaxMAPE: 0.1, MinPairs: 3}

	if v, mape, pairs := m.Verdict(region, gate); v != VerdictTrusted || pairs != 3 || mape > 0.1 {
		t.Errorf("verdict %q (mape %v, pairs %d), want trusted", v, mape, pairs)
	}
	if v, _, _ := m.Verdict(region, Gate{MaxMAPE: 0.01, MinPairs: 3}); v != VerdictEscalated {
		t.Errorf("tight gate: verdict %q, want escalated", v)
	}
	if v, _, _ := m.Verdict(region, Gate{MaxMAPE: 0.1, MinPairs: 10}); v != VerdictUncalibrated {
		t.Errorf("thin coverage: verdict %q, want uncalibrated", v)
	}
	other := RegionFor(testTopo, 8, "randomfixed", "", 0.6)
	if v, mape, pairs := m.Verdict(other, gate); v != VerdictUncalibrated || pairs != 0 || !math.IsNaN(mape) {
		t.Errorf("unknown region: verdict %q mape %v pairs %d, want uncalibrated NaN 0", v, mape, pairs)
	}
	var nilMap *Map
	if v, _, _ := nilMap.Verdict(region, gate); v != VerdictUncalibrated {
		t.Errorf("nil map: verdict %q, want uncalibrated", v)
	}
}

// sourceFunc adapts a plain range function to Source.
type sourceFunc func(fn func(key string, pt eval.Point) bool)

func (f sourceFunc) Range(fn func(key string, pt eval.Point) bool) { f(fn) }

func TestMineIsIdempotent(t *testing.T) {
	cells := map[string]eval.Point{}
	k1, p1 := testCell(t, 0.6, 0, 110, 100)
	k2, p2 := testCell(t, 0.7, 1, 95, 100)
	cells[k1], cells[k2] = p1, p2
	src := sourceFunc(func(fn func(string, eval.Point) bool) {
		for k, p := range cells {
			if !fn(k, p) {
				return
			}
		}
	})

	m := NewMap()
	if added := m.Mine(context.Background(), src); added != 2 {
		t.Fatalf("Mine added %d, want 2", added)
	}
	if added := m.Mine(context.Background(), src); added != 0 {
		t.Fatalf("re-Mine added %d, want 0 (idempotent)", added)
	}
	// A new sim cell lands in the source: the next Mine folds in just it.
	k3, p3 := testCell(t, 0.65, 2, 105, 100)
	cells[k3] = p3
	if added := m.Mine(context.Background(), src); added != 1 {
		t.Fatalf("top-up Mine added %d, want 1", added)
	}
}

// TestOneCellUnderSeveralSaltsPairsOnce: a store that several front
// doors wrote holds the same scenario under several backend salts — none
// from a default runner, the built-in list's from an older daemon, a fleet
// tag from a dispatcher. It is one measurement: it pairs once, in
// whichever order the lines arrive.
func TestOneCellUnderSeveralSaltsPairsOnce(t *testing.T) {
	key, pt := testCell(t, 0.6, 0, 110, 100)
	salts := []string{"", "backends=analytic,sim,bounds|", "backends=remote(http://10.0.0.1:8713,http://10.0.0.2:8713)|"}
	ctx := context.Background()
	for first := range salts {
		m := NewMap()
		if !m.Observe(ctx, salts[first]+key, pt) {
			t.Fatalf("first sighting under salt %q did not pair", salts[first])
		}
		src := sourceFunc(func(fn func(string, eval.Point) bool) {
			for _, salt := range salts {
				if !fn(salt+key, pt) {
					return
				}
			}
		})
		if added := m.Mine(ctx, src); added != 0 || m.Pairs() != 1 {
			t.Errorf("seen under %q: mining its other salts added %d pairs (total %d), want 0 (1)", salts[first], added, m.Pairs())
		}
		if reg := m.Report().Regions; len(reg) != 1 || reg[0].Pairs != 1 {
			t.Errorf("seen under %q: regions %+v, want one region with one pair", salts[first], reg)
		}
	}
}

// TestAblationVariantsDoNotCalibrate: the trust gate reads a region as
// the paper's model's error, so a sim-carrying cell of an ablated model —
// a spec may set with_sim on any variant; its key parses — is observed
// (seen) but adds no pair to the base model's region.
func TestAblationVariantsDoNotCalibrate(t *testing.T) {
	key, pt := testCell(t, 0.6, 0, 150, 100)
	ablated := strings.Replace(key, " sim=true", " variant=truefalsefalse sim=true", 1)
	if sc, _, err := eval.ParseKey(ablated); err != nil || !sc.Variant.NoBlockingCorrection {
		t.Fatalf("crafted key %q does not parse as an ablation variant: %+v, %v", ablated, sc, err)
	}
	m := NewMap()
	ctx := context.Background()
	if m.Observe(ctx, ablated, pt) {
		t.Error("an ablation-variant cell paired")
	}
	if m.Pairs() != 0 || len(m.Report().Regions) != 0 {
		t.Errorf("ablation-variant cell left %d pairs in %d regions, want none", m.Pairs(), len(m.Report().Regions))
	}
	if _, seen := m.seen[ablated]; !seen {
		t.Error("ablation-variant cell was not seen")
	}
	// The base cell at the same coordinates is a different key and pairs.
	base, good := testCell(t, 0.6, 0, 102, 100)
	if !m.Observe(ctx, base, good) {
		t.Error("base-variant cell did not pair beside its ablated twin")
	}
	if v, mape, pairs := m.Verdict(RegionFor(testTopo, 8, "pairqueue", "", 0.6), Gate{MaxMAPE: 0.1, MinPairs: 1}); v != VerdictTrusted || pairs != 1 {
		t.Errorf("region verdict %q (mape %v, %d pairs), want trusted on the base cell alone", v, mape, pairs)
	}
}

func TestObserveUnanchoredWorkloadRegion(t *testing.T) {
	// Workload cells mark the model NA, so they never pair — but a
	// crafted cell with a workload key and finite model exercises the
	// workload coordinate and band anchoring in one go.
	sat := saturation(t)
	sc := eval.Scenario{
		Topology: testTopo, MsgFlits: 8, Policy: sim.PairQueue,
		Load: eval.Load{Frac: true, Value: 0.6}, WithSim: true,
		Budget: eval.Budget{Warmup: 100, Measure: 200, Seed: 9},
	}
	key := sc.Key() + " workload=mmpp(0.3,400)"
	pt := eval.NewPoint()
	pt.LoadFlits, pt.Model, pt.Sim = 0.6*sat, 100, 100
	m := NewMap()
	if !m.Observe(context.Background(), key, pt) {
		t.Fatal("workload cell did not pair")
	}
	rep := m.Report()
	if len(rep.Regions) != 1 || rep.Regions[0].Workload != "mmpp(0.3,400)" {
		t.Fatalf("workload region not recorded: %+v", rep.Regions)
	}
	if want := "bft-64/s=8/pairqueue/w=mmpp(0.3,400)/50-75%"; rep.Regions[0].Name != want {
		t.Errorf("region name %q, want %q", rep.Regions[0].Name, want)
	}
}
