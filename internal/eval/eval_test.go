package eval

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/topology"
)

func bftScenario(withSim bool) Scenario {
	sc := Scenario{
		Topology: Topology{Family: FamilyBFT, Size: 16},
		MsgFlits: 4,
		Load:     Load{Frac: true, Value: 0.5},
		WithSim:  withSim,
		Budget:   Budget{Warmup: 300, Measure: 2000, Seed: 3},
	}
	return sc
}

func TestPointMerge(t *testing.T) {
	model := NewPoint()
	model.LoadFlits, model.Model = 0.02, 31.5
	simPt := NewPoint()
	simPt.LoadFlits, simPt.Sim, simPt.SimCI, simPt.SimSaturated = 0.02, 33.0, 0.5, false

	got := NewPoint().Merge(model).Merge(simPt)
	if got.LoadFlits != 0.02 || got.Model != 31.5 || got.Sim != 33.0 || got.SimCI != 0.5 {
		t.Errorf("merge lost fields: %+v", got)
	}
	// Merging an empty point must change nothing (SimPrecision stays NaN
	// throughout, so the comparison must be NaN-aware).
	if again := got.Merge(NewPoint()); !Same(again, got) {
		t.Errorf("empty merge perturbed the point: %+v vs %+v", again, got)
	}
	// A saturated-but-NaN sim still carries its marker.
	sat := NewPoint()
	sat.SimSaturated = true
	if merged := got.Merge(sat); !merged.SimSaturated {
		t.Error("saturation marker dropped by merge")
	}
}

func TestAnalyticBackendEvaluate(t *testing.T) {
	b := NewAnalyticBackend()
	pt, err := b.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.Model) || pt.Model <= 0 {
		t.Fatalf("model latency %v", pt.Model)
	}
	if !math.IsNaN(pt.Sim) {
		t.Errorf("analytic backend produced a sim value: %v", pt.Sim)
	}
	// Fractional load resolved through the base saturation anchor.
	sat, err := b.SaturationLoad(Topology{Family: FamilyBFT, Size: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 * sat; math.Abs(pt.LoadFlits-want) > 1e-15 {
		t.Errorf("load %v, want %v", pt.LoadFlits, want)
	}
}

func TestAnalyticBackendSaturationReportsAsPoint(t *testing.T) {
	b := NewAnalyticBackend()
	sc := bftScenario(false)
	sc.Load = Load{Value: 10} // absurd absolute load
	pt, err := b.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.ModelSaturated || !math.IsInf(pt.Model, 1) {
		t.Errorf("super-saturated load should mark the point: %+v", pt)
	}
}

func TestVariantAnchoring(t *testing.T) {
	b := NewAnalyticBackend()
	base, err := b.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	sc := bftScenario(false)
	sc.Variant = Variant{Name: "A1", NoBlockingCorrection: true}
	ablated, err := b.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if ablated.LoadFlits != base.LoadFlits {
		t.Errorf("variant probed %v, base %v — fractional loads must share the base anchor",
			ablated.LoadFlits, base.LoadFlits)
	}
	if !(ablated.Model > base.Model) {
		t.Errorf("A1 variant %v should exceed base %v", ablated.Model, base.Model)
	}
}

func TestSimBackendEvaluate(t *testing.T) {
	ab := NewAnalyticBackend()
	sb := NewSimBackend(ab)
	pt, err := sb.Evaluate(context.Background(), bftScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.Sim) || pt.Sim <= 0 {
		t.Fatalf("sim latency %v", pt.Sim)
	}
	if !math.IsNaN(pt.Model) {
		t.Errorf("sim backend produced a model value: %v", pt.Model)
	}

	// Scenarios not asking for simulation are answered with an empty
	// point.
	skip, err := sb.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(skip.Sim) || !math.IsNaN(skip.LoadFlits) {
		t.Errorf("WithSim=false should yield an empty point: %+v", skip)
	}
}

// TestSimEvaluateAllocs: a warm fixed-window cell allocates nothing. The
// network and the load anchor are memoized, the engine is parked, and
// the Result stays on Evaluate's frame because sim.Run inlines there and
// the run builds no ChannelBusy; an allocation here means one of those
// stopped holding.
func TestSimEvaluateAllocs(t *testing.T) {
	ctx := context.Background()
	sb := NewSimBackend(NewAnalyticBackend())
	sc := bftScenario(true)
	if _, err := sb.Evaluate(ctx, sc); err != nil {
		t.Fatal(err)
	}
	// Ten runs, as in sim's TestWarmRunAllocs: a burst of runtime
	// housekeeping after a collection stays below one allocation per run.
	got := testing.AllocsPerRun(10, func() {
		if _, err := sb.Evaluate(ctx, sc); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 && !race.Enabled {
		t.Errorf("a warm fixed-window SimBackend.Evaluate allocates %v times, want 0", got)
	}
}

// misdeliveringNet routes every worm's last hop to the next processor's
// ejection channel, which trips the simulator's delivery assertion (a
// panic).
type misdeliveringNet struct{ topology.Network }

func (n *misdeliveringNet) NextGroup(cur topology.ChannelID, dst int) topology.GroupID {
	g, tab := n.Network.NextGroup(cur, dst), n.Tables()
	if g == tab.Ejection(dst) {
		return tab.Ejection((dst + 1) % n.NumProcessors())
	}
	return g
}

// A request must not be able to kill or wedge a shard: a simulator panic
// comes back as that cell's error, and the backend — whose pool must not
// take the panicked engine back — answers the next cell exactly as a
// fresh backend would.
func TestSimBackendSurvivesSimulatorPanic(t *testing.T) {
	ctx := context.Background()
	ab := NewAnalyticBackend()
	sb := NewSimBackend(ab)
	healthy := bftScenario(true)
	want, err := NewSimBackend(ab).Evaluate(ctx, healthy)
	if err != nil {
		t.Fatal(err)
	}

	broken := healthy
	broken.Topology.Size = 64
	net, err := broken.Topology.NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	withSimNet(t, broken.Topology, &misdeliveringNet{net})
	for _, replicas := range []int{1, 2} {
		broken.Budget.Replicas = replicas
		_, err := sb.Evaluate(ctx, broken)
		if err == nil || !strings.Contains(err.Error(), "delivered to") {
			t.Fatalf("replicas=%d: err = %v, want the simulator's panic as an error", replicas, err)
		}
	}

	got, err := sb.Evaluate(ctx, healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !Same(got, want) {
		t.Errorf("healthy cell after a panic: got %+v, want %+v", got, want)
	}
}

// sim.run spans say whether the run was on a parked engine and how many
// worm slots it needed; the engine counters move with them. The first
// cell may find the process's list empty, the second always finds the
// engine the first parked.
func TestSimRunSpanReportsEngineReuse(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	ctx := obs.WithTracer(context.Background(), tr)
	before := obs.Counters()
	sb := NewSimBackend(NewAnalyticBackend())
	for i := 0; i < 2; i++ {
		sc := bftScenario(true)
		sc.Budget.Seed += uint64(i)
		if _, err := sb.Evaluate(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	after := obs.Counters()
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d spans, want 2 sim.run", len(events))
	}
	var built int64
	for i, ev := range events {
		hw, _ := ev.Attrs["worms_high_water"].(float64)
		reused, ok := ev.Attrs["engine_reused"].(bool)
		if ev.Name != "sim.run" || !ok || (i == 1 && !reused) || hw < 1 {
			t.Errorf("span %d: %s %v, want sim.run with engine_reused (true on the second) and a worm high-water mark", i, ev.Name, ev.Attrs)
		}
		if !reused {
			built++
		}
	}
	for name, want := range map[string]int64{"sim_engines_built_total": built, "sim_engines_reused_total": 2 - built} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d (as the spans say)", name, got, want)
		}
	}
}

// A new backend simulates on what the process has parked: once one
// sim.Run has parked an engine, a new SimBackend's first cell builds
// none, and its sim.run span says so.
func TestNewBackendSimulatesOnParkedEngine(t *testing.T) {
	net, err := topology.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Net: net, MsgFlits: 4, Seed: 1, WarmupCycles: 100, MeasureCycles: 500}.FlitLoad(0.01)
	if _, err := sim.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&buf))
	before := obs.Counters()
	if _, err := NewSimBackend(NewAnalyticBackend()).Evaluate(ctx, bftScenario(true)); err != nil {
		t.Fatal(err)
	}
	after := obs.Counters()
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "sim.run" || events[0].Attrs["engine_reused"] != true {
		t.Errorf("spans %+v, want one sim.run with engine_reused=true", events)
	}
	for name, want := range map[string]int64{"sim_engines_built_total": 0, "sim_engines_reused_total": 1} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d, want %d", name, got, want)
		}
	}
}

func TestSimBackendNeedsAnchorForFractions(t *testing.T) {
	sb := NewSimBackend(nil)
	_, err := sb.Evaluate(context.Background(), bftScenario(true))
	if err == nil {
		t.Fatal("fractional load without an anchor should fail")
	}
	// Absolute loads work without one.
	sc := bftScenario(true)
	sc.Load = Load{Value: 0.05}
	if _, err := sb.Evaluate(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
}

func TestBackendsHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ab := NewAnalyticBackend()
	if _, err := ab.Evaluate(ctx, bftScenario(false)); !errors.Is(err, context.Canceled) {
		t.Errorf("analytic: want context.Canceled, got %v", err)
	}
	if _, err := NewSimBackend(ab).Evaluate(ctx, bftScenario(true)); !errors.Is(err, context.Canceled) {
		t.Errorf("sim: want context.Canceled, got %v", err)
	}
}

func TestTopologyConstructorsRejectUnknownFamily(t *testing.T) {
	bad := Topology{Family: "mesh", Size: 16}
	if _, err := bad.NewModel(8, core.Options{}); err == nil {
		t.Error("NewModel accepted an unknown family")
	}
	if _, err := bad.NewNetwork(); err == nil {
		t.Error("NewNetwork accepted an unknown family")
	}
	if _, err := (Topology{Family: FamilyTorus, Size: 3, K: 4}).NewNetwork(); err == nil {
		t.Error("the torus should have no simulator topology")
	}
}

// TestEveryFamilyReportsChannelStats: every family's model reports its
// per-class stats. Below saturation the injection row carries the
// latency's own W̄₀₁ and x̄₀₁ — exactly where Latency resolves the graph,
// to round-off where it is the fat-tree's closed form — and past
// saturation ChannelStats refuses as Latency does.
func TestEveryFamilyReportsChannelStats(t *testing.T) {
	variants := []Variant{
		{Name: "paper"},
		{Name: "no-blocking", NoBlockingCorrection: true},
		{Name: "single-server", SingleServerGroups: true},
		{Name: "pre-erratum", NoPairRateCorrection: true},
	}
	for _, tc := range []struct {
		topo Topology
		inj  string
	}{
		{Topology{Family: FamilyBFT, Size: 64}, "up<0,1>"},
		{Topology{Family: FamilyHypercube, Size: 6}, "inject"},
		{Topology{Family: FamilyTorus, Size: 3, K: 4}, "inject"},
	} {
		for _, v := range variants {
			m, err := tc.topo.NewModel(16, v.Options())
			if err != nil {
				t.Fatal(err)
			}
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.Name, err)
			}
			tol := 0.0
			if tc.topo.Family == FamilyBFT && v.IsBase() {
				tol = 1e-12
			}
			lambda0 := 0.5 * sat / m.MsgFlits()
			lat, err := m.Latency(lambda0)
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.Name, err)
			}
			stats, err := m.ChannelStats(nil, lambda0)
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.Name, err)
			}
			found := false
			for _, st := range stats {
				if st.Name != tc.inj {
					continue
				}
				found = true
				if relDiff(st.Wait, lat.WaitInj) > tol || relDiff(st.Service, lat.ServiceInj) > tol {
					t.Errorf("%s %s: %s row W̄=%v x̄=%v, Latency W̄₀₁=%v x̄₀₁=%v",
						m.Name(), v.Name, st.Name, st.Wait, st.Service, lat.WaitInj, lat.ServiceInj)
				}
			}
			if !found {
				t.Errorf("%s %s: no %s row in %d stats", m.Name(), v.Name, tc.inj, len(stats))
			}
			if _, err := m.ChannelStats(nil, 1.5*sat/m.MsgFlits()); !errors.Is(err, core.ErrUnstable) {
				t.Errorf("%s %s: ChannelStats at 1.5× saturation: %v, want ErrUnstable", m.Name(), v.Name, err)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestSimulatedNetworkIsCapped: a network above topology.MaxProcessors,
// or replicas whose engines together simulate more processors than that,
// is refused by arithmetic, before NewNetwork builds anything; the cap is
// inclusive, and the model takes any size it always did.
func TestSimulatedNetworkIsCapped(t *testing.T) {
	for _, tc := range []struct {
		topo     Topology
		replicas int
		ok       bool
	}{
		{Topology{Family: FamilyBFT, Size: 65536}, 0, true},
		{Topology{Family: FamilyBFT, Size: 262144}, 1, false},
		{Topology{Family: FamilyBFT, Size: 67108864}, 0, false},
		{Topology{Family: FamilyHypercube, Size: 16}, 1, true},
		{Topology{Family: FamilyHypercube, Size: 17}, 0, false},
		{Topology{Family: FamilyHypercube, Size: 1 << 40}, 0, false},
		{Topology{Family: FamilyBFT, Size: 16384}, 4, true},
		{Topology{Family: FamilyBFT, Size: 16384}, 8, false},
		{Topology{Family: FamilyBFT, Size: 16}, 4096, true},
		{Topology{Family: FamilyBFT, Size: 16}, 1_000_000_000, false},
		{Topology{Family: FamilyHypercube, Size: 14}, 4, true},
		{Topology{Family: FamilyHypercube, Size: 14}, 5, false},
		{Topology{Family: FamilyHypercube, Size: 4}, math.MaxInt, false},
	} {
		err := tc.topo.CheckSimSize(tc.replicas)
		if tc.ok != (err == nil) {
			t.Errorf("%s × %d: CheckSimSize = %v, want ok=%v", tc.topo, tc.replicas, err, tc.ok)
		}
		if !tc.ok {
			if !strings.Contains(err.Error(), "limit is 65536 processors") {
				t.Errorf("%s × %d: error does not name the limit: %v", tc.topo, tc.replicas, err)
			}
			if tc.replicas > 1 {
				continue // the network alone fits; NewNetwork builds it
			}
			start := time.Now()
			if _, nerr := tc.topo.NewNetwork(); nerr == nil || nerr.Error() != err.Error() || time.Since(start) > time.Second {
				t.Errorf("%s: NewNetwork = %v after %v, want CheckSimSize's refusal at once", tc.topo, nerr, time.Since(start))
			}
		}
	}
	if _, err := (Topology{Family: FamilyBFT, Size: 67108864}).NewModel(8, core.Options{}); err != nil {
		t.Errorf("the model lost bft-67108864: %v", err)
	}
}

// TestScenarioKeyPrecisionKnobs: the early-stopping and replica knobs
// are part of a sim scenario's identity — but only when set, so every
// cache line persisted before the knobs existed keeps its key.
func TestScenarioKeyPrecisionKnobs(t *testing.T) {
	base := bftScenario(true)
	if k := base.Key(); k != base.Key() {
		t.Fatal("key not deterministic")
	}
	withPrec := base
	withPrec.Budget.Precision = 0.05
	withReps := base
	withReps.Budget.Replicas = 4
	if base.Key() == withPrec.Key() {
		t.Error("precision must change the cache key")
	}
	if base.Key() == withReps.Key() {
		t.Error("replicas must change the cache key")
	}
	if withPrec.Key() == withReps.Key() {
		t.Error("precision and replicas must key differently")
	}
	// Replicas <= 1 and precision 0 are the classic run: same key.
	oneRep := base
	oneRep.Budget.Replicas = 1
	if base.Key() != oneRep.Key() {
		t.Error("replicas=1 must not perturb the key")
	}
	// Model-only scenarios ignore the budget entirely.
	modelOnly := bftScenario(false)
	mp := modelOnly
	mp.Budget.Precision = 0.05
	if modelOnly.Key() != mp.Key() {
		t.Error("budget knobs must not key model-only scenarios")
	}
}

// TestSimBackendPrecisionBudget: Budget.Precision flows into the
// simulator's early stopping and the achieved precision flows back into
// the point.
func TestSimBackendPrecisionBudget(t *testing.T) {
	ab := NewAnalyticBackend()
	sc := bftScenario(true)
	sc.Budget.Measure = 20000
	sc.Budget.Precision = 0.1
	pt, err := NewSimBackend(ab).Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.Sim) {
		t.Fatal("no sim measurement")
	}
	if math.IsNaN(pt.SimPrecision) {
		t.Fatal("achieved precision not reported")
	}
	if pt.SimPrecision > sc.Budget.Precision {
		t.Errorf("achieved precision %v exceeds requested %v", pt.SimPrecision, sc.Budget.Precision)
	}
	// Replicas pool into one tighter estimate.
	rep := bftScenario(true)
	rep.Budget.Replicas = 3
	single, err := NewSimBackend(ab).Evaluate(context.Background(), bftScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewSimBackend(ab).Evaluate(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if !(pooled.SimCI < single.SimCI) {
		t.Errorf("pooled CI %v not tighter than single-replica %v", pooled.SimCI, single.SimCI)
	}
}

func TestScenarioKeyVariantSensitivity(t *testing.T) {
	base := bftScenario(false)
	ablated := base
	ablated.Variant = Variant{Name: "A1", NoBlockingCorrection: true}
	renamed := base
	renamed.Variant = Variant{Name: "cosmetic"} // base options, different name
	if base.Key() == ablated.Key() {
		t.Error("variant options must change the cache key")
	}
	if base.Key() != renamed.Key() {
		t.Error("a variant's cosmetic name must not change the cache key")
	}
	if base.CurveKey() == ablated.CurveKey() {
		t.Error("variants must land on distinct curves")
	}
}

// withSimNet makes net the process's simulator topology for topo until
// the test ends.
func withSimNet(t *testing.T, topo Topology, net topology.Network) {
	e := &shared[topology.Network]{v: net}
	e.once.Do(func() {})
	simNets.mu.Lock()
	if simNets.built == nil {
		simNets.built = make(map[Topology]*shared[topology.Network])
	}
	prev := simNets.built[topo]
	simNets.built[topo] = e
	simNets.mu.Unlock()
	t.Cleanup(func() {
		simNets.mu.Lock()
		if delete(simNets.built, topo); prev != nil {
			simNets.built[topo] = prev
		}
		simNets.mu.Unlock()
	})
}

// The process builds each network once, whichever backend asks first:
// goroutines on fresh backends asking for the same and for distinct
// instances at once get one analytic network (the build counter) and one
// simulator topology (the pointer) per instance. A build that fails is
// not kept, so the next caller fails the same way; a trace that fails to
// load is memoized per backend.
func TestNetworksBuildOncePerProcess(t *testing.T) {
	ctx := context.Background()
	topos := []Topology{
		{Family: FamilyBFT, Size: 4096},
		{Family: FamilyHypercube, Size: 9},
		{Family: FamilyTorus, Size: 5, K: 3}, // model-only
	}
	analyticNets.mu.Lock()
	fresh := int64(0)
	for _, topo := range topos {
		if analyticNets.built[topo] == nil {
			fresh++
		}
	}
	analyticNets.mu.Unlock()
	built := obs.Counters()["analytic_models_built_total"]
	nets := make([]topology.Network, 4*len(topos))
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topo := topos[i%len(topos)]
			sc := Scenario{Topology: topo, MsgFlits: 8, Load: Load{Value: 0.01}}
			if _, err := NewAnalyticBackend().Evaluate(ctx, sc); err != nil {
				t.Error(err)
			}
			if topo.Family == FamilyTorus {
				return
			}
			sc.WithSim, sc.Budget = true, Budget{Warmup: 10, Measure: 20, DrainLimit: 1}
			if _, err := NewSimBackend(nil).Evaluate(ctx, sc); err != nil {
				t.Error(err)
			}
			nets[i], _ = simNets.get(topo)
		}(i)
	}
	wg.Wait()
	if got := obs.Counters()["analytic_models_built_total"] - built; got != fresh {
		t.Errorf("%d backends on %d instances built %d networks, want %d", len(nets), len(topos), got, fresh)
	}
	for i, net := range nets {
		if j := i % len(topos); net != nets[j] {
			t.Errorf("caller %d got its own %s: the build ran more than once", i, topos[j])
		}
	}
	if nets[0] == nil || nets[0] == nets[1] {
		t.Error("distinct instances share a simulator topology")
	}

	sb := NewSimBackend(nil)
	for _, bad := range []struct {
		fresh func() Evaluator
		sc    Scenario
	}{
		{func() Evaluator { return NewSimBackend(nil) }, Scenario{Topology: Topology{Family: FamilyBFT, Size: 1 << 18}, MsgFlits: 8, WithSim: true}},
		{func() Evaluator { return NewAnalyticBackend() }, Scenario{Topology: Topology{Family: FamilyTorus, Size: 2, K: 1}, MsgFlits: 8}},
	} {
		var errs []string
		for i := 0; i < 2; i++ {
			_, err := bad.fresh().Evaluate(ctx, bad.sc)
			if err == nil {
				t.Fatalf("%s was built", bad.sc.Topology)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: a second call failed otherwise: %q, then %q", bad.sc.Topology, errs[0], errs[1])
		}
		simNets.mu.Lock()
		analyticNets.mu.Lock()
		if simNets.built[bad.sc.Topology] != nil || analyticNets.built[bad.sc.Topology] != nil {
			t.Errorf("the failed build of %s was kept", bad.sc.Topology)
		}
		analyticNets.mu.Unlock()
		simNets.mu.Unlock()
	}

	missing := filepath.Join(t.TempDir(), "trace.ndjson")
	_, first := sb.trace(missing)
	if first == nil {
		t.Fatal("a missing trace file loaded")
	}
	if err := os.WriteFile(missing, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, second := sb.trace(missing); second != first {
		t.Errorf("trace load failure not memoized: %v, then %v", first, second)
	}
}
