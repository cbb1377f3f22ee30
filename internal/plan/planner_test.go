package plan

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analytic"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// countingEvaluator wraps the analytic backend and counts evaluations:
// the instrument behind the planner-vs-grid efficiency pin.
type countingEvaluator struct {
	inner *eval.AnalyticBackend
	n     atomic.Int64
}

func newCountingEvaluator() *countingEvaluator {
	return &countingEvaluator{inner: eval.NewAnalyticBackend()}
}

func (c *countingEvaluator) Name() string { return "analytic" }

func (c *countingEvaluator) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, error) {
	c.n.Add(1)
	return c.inner.Evaluate(ctx, sc)
}

func (c *countingEvaluator) Curve(ctx context.Context, sc eval.Scenario) (eval.CurveDesc, error) {
	return c.inner.Curve(ctx, sc)
}

// TestMaxLoadMatchesGridSaturation pins the planner's reason to exist:
// its max-load answer for a builtin topology agrees with the saturation
// point read off the corresponding full sweep grid to 1e-6 relative on
// the load axis, while issuing measurably fewer analytic evaluations
// than the grid — and its engine sees only the coarse grid and the
// operating point, never a search probe.
func TestMaxLoadMatchesGridSaturation(t *testing.T) {
	ctx := context.Background()

	// The reference: a dense fixed grid over the same curve. Its
	// saturation reading is the curve's Eq. 26 anchor; its cost is one
	// backend evaluation per cell.
	const gridPoints = 160
	gridCounter := newCountingEvaluator()
	gridRunner := sweep.NewRunner(sweep.WithBackends(gridCounter))
	gridSpec := sweep.Spec{
		Name:       "grid-reference",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{16},
		Loads:      sweep.LoadSpec{Points: gridPoints, MaxFrac: 1.05},
	}
	gridRes, err := gridRunner.Run(ctx, gridSpec)
	if err != nil {
		t.Fatal(err)
	}
	gridSat := gridRes.Curves[0].SaturationLoad
	if math.IsNaN(gridSat) || gridSat <= 0 {
		t.Fatalf("grid saturation reading = %v", gridSat)
	}
	gridEvals := int(gridCounter.n.Load())
	if gridEvals != gridPoints {
		t.Fatalf("grid issued %d evaluations, want %d", gridEvals, gridPoints)
	}
	// The grid's own knee bracket: the planner's answer must fall
	// between the last stable and first saturated grid rows.
	lastStable, firstSat := math.NaN(), math.NaN()
	for _, row := range gridRes.Rows {
		if row.ModelSaturated {
			firstSat = row.LoadFlits
			break
		}
		lastStable = row.LoadFlits
	}
	if math.IsNaN(lastStable) || math.IsNaN(firstSat) {
		t.Fatalf("grid does not bracket the knee (lastStable=%v firstSat=%v)", lastStable, firstSat)
	}

	// The planner, over a fresh counting backend.
	planCounter := newCountingEvaluator()
	planner := New(sweep.NewRunner(sweep.WithBackends(planCounter)))
	spec := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		SkipCertify: true,
		Search:      Search{Tolerance: 1e-8},
	}
	res, err := planner.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("empty frontier")
	}
	rel := math.Abs(best.MaxLoad-gridSat) / gridSat
	if rel > 1e-6 {
		t.Errorf("planner max-load %v vs grid saturation %v: rel err %g > 1e-6",
			best.MaxLoad, gridSat, rel)
	}
	if best.MaxLoad < lastStable || best.MaxLoad > firstSat {
		t.Errorf("planner max-load %v outside the grid's knee bracket [%v, %v]",
			best.MaxLoad, lastStable, firstSat)
	}
	if evals := res.Stats.AnalyticEvals(); evals >= gridEvals/2 {
		t.Errorf("planner issued %d analytic evaluations, want measurably fewer than the grid's %d",
			evals, gridEvals)
	}
	// The engine answers the coarse grid and the one refined candidate's
	// operating point (0.9 of a knee located to 1e-8 needs no retry).
	if got, want := int(planCounter.n.Load()), res.Stats.CoarseCells+res.Stats.Refined; got != want {
		t.Errorf("the engine evaluated %d cells, want the %d coarse cells and %d operating point(s)",
			got, res.Stats.CoarseCells, res.Stats.Refined)
	}
	t.Logf("grid: %d evals; planner: %d evals (%.1fx fewer), %d of them on its engine, rel err %.2g",
		gridEvals, res.Stats.AnalyticEvals(), float64(gridEvals)/float64(res.Stats.AnalyticEvals()),
		planCounter.n.Load(), rel)
}

// TestStreamMatchesRun pins Stream's contract: same frontier as Run,
// phases in order, done update carrying the assembled result.
func TestStreamMatchesRun(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxLatency: 40},
		SkipCertify: true,
	}
	runRes, err := NewLocal(nil).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var frontier []Candidate
	var done *Result
	refined := 0
	for u := range NewLocal(nil).Stream(ctx, spec) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		switch u.Phase {
		case PhaseRefine:
			refined++
		case PhaseFrontier:
			frontier = append(frontier, *u.Candidate)
		case PhaseDone:
			done = u.Result
		}
	}
	if done == nil {
		t.Fatal("no done update")
	}
	if len(frontier) != len(runRes.Frontier) {
		t.Fatalf("streamed frontier has %d candidates, Run produced %d", len(frontier), len(runRes.Frontier))
	}
	for i := range frontier {
		a, _ := json.Marshal(frontier[i])
		b, _ := json.Marshal(runRes.Frontier[i])
		if string(a) != string(b) {
			t.Errorf("frontier[%d] differs:\nstream: %s\nrun:    %s", i, a, b)
		}
	}
	if refined != done.Stats.Refined {
		t.Errorf("saw %d refine updates, stats say %d", refined, done.Stats.Refined)
	}
}

// TestCertifyFrontier runs the full pipeline with the simulator on a
// tiny machine: the frontier must come back sim-certified.
func TestCertifyFrontier(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}},
			MsgFlits:   []int{8},
		},
		Objective: ObjectiveMaxLoad,
		// Operate well inside the stable region so the quick sim budget
		// certifies cleanly.
		Search: Search{OperatingFrac: 0.5},
		Budget: eval.Budget{Warmup: 500, Measure: 4000, Seed: 1},
	}
	res, err := NewLocal(sweep.NewCache()).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, c := range res.Frontier {
		if !c.Certified {
			t.Errorf("%s not certified (sim=%v saturated=%v)", c.Key(), c.Sim, c.SimSaturated)
		}
		if math.IsNaN(c.Sim) {
			t.Errorf("%s has no sim measurement", c.Key())
		}
	}
	if res.Stats.SimEvals != len(res.Frontier) {
		t.Errorf("sim evals = %d, want one per frontier candidate (%d)", res.Stats.SimEvals, len(res.Frontier))
	}
	if res.Stats.Certified != len(res.Frontier) {
		t.Errorf("certified = %d, want %d", res.Stats.Certified, len(res.Frontier))
	}
}

// TestConstraintsPrune covers the prune verdicts: an impossible SLO
// empties the frontier, a min_load above a small machine's saturation
// prunes exactly that machine.
func TestConstraintsPrune(t *testing.T) {
	ctx := context.Background()

	impossible := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxLatency: 1}, // below even the unloaded latency
		SkipCertify: true,
	}
	res, err := NewLocal(nil).Run(ctx, impossible)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 0 || res.Stats.Pruned != 1 {
		t.Errorf("impossible SLO: frontier=%d pruned=%d, want 0/1", len(res.Frontier), res.Stats.Pruned)
	}
	if !res.Candidates[0].Pruned || !strings.Contains(res.Candidates[0].PruneReason, "infeasible") {
		t.Errorf("prune reason = %q", res.Candidates[0].PruneReason)
	}

	// bft-1024 saturates at ~0.039 flits/cyc/PE: a 0.05 requirement
	// prunes it and keeps bft-64 (sat ~0.16).
	sla := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 1024}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMinCost,
		Constraints: Constraints{MinLoad: 0.05},
		SkipCertify: true,
	}
	res, err = NewLocal(nil).Run(ctx, sla)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 1 || res.Frontier[0].Topology.Size != 64 {
		t.Fatalf("frontier = %+v, want exactly bft-64", res.Frontier)
	}
	var pruned *Candidate
	for i := range res.Candidates {
		if res.Candidates[i].Pruned {
			pruned = &res.Candidates[i]
		}
	}
	if pruned == nil || pruned.Topology.Size != 1024 || !strings.Contains(pruned.PruneReason, "min_load") {
		t.Errorf("expected bft-1024 pruned for min_load, got %+v", pruned)
	}
	// The survivor reports its latency at exactly the required load.
	if got := res.Frontier[0].OperatingLoad; got != 0.05 {
		t.Errorf("operating load = %v, want the required 0.05", got)
	}
}

// TestMinLoadAtTheKneeKeepsItsContract pins the hard edge of the
// min_load contract: when the required load sits exactly at a
// candidate's knee (within the bisection tolerance of the boundary),
// the candidate is either pruned or reported at exactly the required
// load with a finite latency — never a frontier entry whose latency
// was measured at some other load, and never a NaN that would poison
// Pareto domination.
func TestMinLoadAtTheKneeKeepsItsContract(t *testing.T) {
	ctx := context.Background()
	base := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		SkipCertify: true,
	}
	free, err := NewLocal(nil).Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	knee := free.Best().MaxLoad

	pinned := base
	pinned.Constraints = Constraints{MinLoad: knee}
	res, err := NewLocal(nil).Run(ctx, pinned)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Candidates[0]
	switch {
	case c.Pruned:
		if !strings.Contains(c.PruneReason, "min_load") {
			t.Errorf("pruned for the wrong reason: %q", c.PruneReason)
		}
		if len(res.Frontier) != 0 {
			t.Errorf("pruned candidate still on the frontier")
		}
	default:
		if c.OperatingLoad != knee {
			t.Errorf("operating load %v, want exactly the required %v", c.OperatingLoad, knee)
		}
		if math.IsNaN(c.Latency) || math.IsInf(c.Latency, 0) {
			t.Errorf("frontier latency not finite: %v", c.Latency)
		}
	}
}

// TestMaxUtilizationCapsTheKnee pins the utilization constraint: the
// refined max load is the cap, not the saturation knee.
func TestMaxUtilizationCapsTheKnee(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxUtilization: 0.6},
		SkipCertify: true,
	}
	res, err := NewLocal(nil).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("empty frontier")
	}
	want := 0.6 * best.SaturationLoad
	if math.Abs(best.MaxLoad-want) > 1e-12 {
		t.Errorf("max load = %v, want the 0.6 utilization cap %v", best.MaxLoad, want)
	}
}

// TestParetoDominance unit-tests the frontier extraction.
func TestParetoDominance(t *testing.T) {
	mk := func(cost, lat, load float64) candidate {
		return candidate{c: &Candidate{Cost: cost, Latency: lat, MaxLoad: load}}
	}
	cands := []candidate{
		mk(100, 10, 0.5), // frontier: cheapest
		mk(200, 5, 0.8),  // frontier: fastest and highest load
		mk(200, 6, 0.7),  // dominated by the one above
		mk(300, 5, 0.8),  // dominated: same metrics, higher cost
	}
	f := pareto(cands)
	if len(f) != 2 {
		keys := make([]float64, 0)
		for _, e := range f {
			keys = append(keys, e.c.Cost)
		}
		t.Fatalf("frontier costs = %v, want [100 200]", keys)
	}
	rank(ObjectiveMinCost, f)
	if f[0].c.Cost != 100 || f[1].c.Cost != 200 {
		t.Errorf("min-cost rank = [%v %v]", f[0].c.Cost, f[1].c.Cost)
	}
	rank(ObjectiveMaxLoad, f)
	if f[0].c.MaxLoad != 0.8 {
		t.Errorf("max-load rank starts at load %v, want 0.8", f[0].c.MaxLoad)
	}
	rank(ObjectiveMinLatency, f)
	if f[0].c.Latency != 5 {
		t.Errorf("min-latency rank starts at latency %v, want 5", f[0].c.Latency)
	}

	// Exact ties on every axis survive together (policy twins).
	twins := []candidate{mk(100, 10, 0.5), mk(100, 10, 0.5)}
	if f := pareto(twins); len(f) != 2 {
		t.Errorf("tied candidates: frontier size %d, want 2", len(f))
	}
}

// TestCancellation: a cancelled context aborts the search with its
// error and Stream closes without a terminal error element.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		SkipCertify: true,
	}
	if _, err := NewLocal(nil).Run(ctx, spec); err == nil {
		t.Error("cancelled Run returned nil error")
	}
	for u := range NewLocal(nil).Stream(ctx, spec) {
		if u.Err != nil {
			t.Errorf("cancelled Stream delivered error %v (want silent close)", u.Err)
		}
	}
}

// TestBuiltinsValidate keeps the shipped specs runnable.
func TestBuiltinsValidate(t *testing.T) {
	if len(Builtins()) == 0 {
		t.Fatal("no builtin plans")
	}
	for _, name := range Builtins() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", name, err)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestCertifyUnderWorkload runs a tiny plan whose frontier is certified
// under a bursty MMPP workload: the search itself anchors at the steady
// model, and every certified candidate is annotated with the workload.
func TestCertifyUnderWorkload(t *testing.T) {
	spec, err := Builtin("bursty-capacity")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to one candidate and a CI-fast budget.
	spec.Space.Topologies = []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}}
	spec.Budget = eval.Budget{Warmup: 500, Measure: 2000, Seed: 1}
	res, err := NewLocal(nil).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("empty frontier")
	}
	if !strings.Contains(best.CertifyNote, "burst") {
		t.Errorf("certify note %q does not name the workload", best.CertifyNote)
	}
	if math.IsNaN(best.Sim) && !best.SimSaturated {
		t.Errorf("no simulation measurement on the frontier: %+v", best)
	}
	if !strings.Contains(res.Summary(), "certification workload") {
		t.Errorf("summary does not mention the workload:\n%s", res.Summary())
	}
}

// TestWorkloadSpecValidation pins the plan-level workload checks.
func TestWorkloadSpecValidation(t *testing.T) {
	spec, err := Builtin("bft-capacity-small")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = &workload.Spec{Process: "gamm", Shape: 2}
	if err := spec.Validate(); err == nil {
		t.Error("misspelled workload process accepted")
	}
	spec.Workload = &workload.Spec{Trace: "t.ndjson"}
	if err := spec.Validate(); err == nil {
		t.Error("trace workload accepted in a plan")
	}
}

// TestLocalPlanBuildsEachModelOnce: a local planner searches on its
// engine's own stack, so a cold plan runs one Eq. 26 saturation search
// per candidate curve, and the process builds each network once: the
// first plan builds at most one per size, and a second fresh planner —
// local, or one whose Engine is not a *sweep.Runner and so keeps a search
// runner of its own, as a dispatcher does — builds none. The second
// local plan still runs every search: only networks are shared. Its
// frontier is the one a planner with a search runner of its own finds.
func TestLocalPlanBuildsEachModelOnce(t *testing.T) {
	ctx := context.Background()
	spec, err := Builtin("bft-capacity-small")
	if err != nil {
		t.Fatal(err)
	}
	networks := int64(len(spec.Space.Topologies[0].Sizes))
	run := func(p *Planner) (res *Result, searches, models int64) {
		s0, m0 := analytic.SaturationSearches(), obs.Counters()["analytic_models_built_total"]
		res, err := p.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, analytic.SaturationSearches() - s0, obs.Counters()["analytic_models_built_total"] - m0
	}
	caches := []*sweep.Cache{sweep.NewCache(), sweep.NewCache()}
	var res *Result
	for i, most := range []int64{networks, 0} {
		r, searches, models := run(NewLocal(caches[i]))
		if want := int64(r.Stats.Candidates); searches != want || models > most {
			t.Errorf("cold local plan %d ran %d saturation searches and built %d models, want %d and at most %d",
				i+1, searches, models, want, most)
		}
		res = r
	}
	refCache := sweep.NewCache()
	ref, _, models := run(New(struct{ *sweep.Runner }{sweep.NewRunner(sweep.WithCache(refCache))}))
	if models != 0 {
		t.Errorf("a planner with a search runner of its own built %d models, want 0", models)
	}
	// Search probes write no cache line on either route.
	if caches[1].Len() != refCache.Len() {
		t.Errorf("the local plan left %d cache lines, a search runner of its own %d", caches[1].Len(), refCache.Len())
	}
	a, _ := json.Marshal(res.Frontier)
	b, _ := json.Marshal(ref.Frontier)
	if len(res.Frontier) == 0 || string(a) != string(b) {
		t.Errorf("frontier searched on the engine's stack:\n%s\non a search runner of its own:\n%s", a, b)
	}
}
