package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fleettest"
	"repro/internal/plan"
	"repro/internal/sweep"
)

// The fault property. FuzzFleet decodes its input into a
// fleettest.Schedule, runs a small workload on that fleet and checks four
// invariants:
//
//  1. every answer equals the in-process one byte for byte: rows, curves
//     and cells as JSON and, because JSON writes +Inf and NaN alike as
//     null, as %v too; for a plan, the frontier's JSON;
//  2. every cell is PutCurve'd into the coordinator's cache exactly once;
//  3. a Retry-After delays only its own shard: schedules hold shards off
//     for an hour, far past faultDeadline, and the run must still finish
//     — a hold-off applied to every shard wedges it (fleettest.Watch);
//  4. a shard restarted over a store cut at byte b holds exactly the
//     complete records in those b bytes (checked by the fleet).
//
// A grid schedule runs three phases through one dispatcher: "model" (Run
// of faultModelSpec), "probe" (Evaluate of an off-grid cell) and "sim"
// (Stream of faultSimSpec); a plan schedule runs "plan".
// The named schedules of internal/fleettest/testdata seed the fuzzer,
// and the tests they were folded from run them here with the
// expectations the invariants do not cover.

const (
	// faultQuiet is how long a run's fleet may have no request in flight
	// before the run counts as wedged: past every backoff and the 1 s
	// Retry-After.
	faultQuiet = 3 * time.Second
	// faultDeadline bounds one schedule's run.
	faultDeadline = time.Minute
)

// faultModelSpec is the property's model-only grid: 18 cells, the 1.2
// fraction past saturation so +Inf models cross the wire.
func faultModelSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "fault-model",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
		MsgFlits:   []int{4, 8, 16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.3, 0.7, 1.2}},
	}
}

// faultSimSpec is the property's simulated grid: four short-budget cells.
func faultSimSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "fault-sim",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4, 8},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
		WithSim:    true,
		Budget:     sweep.Budget{Warmup: 200, Measure: 1000, Seed: 3},
	}
}

// faultPlanSpec is the property's capacity search: coarse grids as
// ranges, operating points as per-cell requests, simulator
// certification (the load search itself never leaves the process).
func faultPlanSpec() plan.Spec {
	return plan.Spec{
		Name: "shard-kill",
		Space: plan.Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
		},
		Objective:   plan.ObjectiveMaxLoad,
		Constraints: plan.Constraints{MaxLatency: 40},
		Search:      plan.Search{OperatingFrac: 0.5},
		Budget:      eval.Budget{Warmup: 500, Measure: 3000, Seed: 1},
	}
}

// render is the form in which two answers must agree byte for byte.
func render(v any, cells ...sweep.Cell) string {
	data, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%s\n%v", data, cells)
}

func renderRows(rows []sweep.Row, curves []sweep.CurveInfo) string {
	cells := make([]sweep.Cell, len(rows))
	for i := range rows {
		cells[i] = rows[i].Cell
	}
	return render(rows, cells...) + fmt.Sprintf("\n%v", curves)
}

// faultRef is the in-process answer to everything a grid schedule asks.
type faultRef struct {
	model, sim, probeCell string
	probe                 sweep.Scenario
	simCells              int
	keys                  []string // every cell the grid phases cache
}

var gridReference = sync.OnceValues(func() (*faultRef, error) {
	ctx, r := context.Background(), sweep.NewRunner()
	model, err := r.Run(ctx, faultModelSpec())
	if err != nil {
		return nil, err
	}
	sim, err := r.Run(ctx, faultSimSpec())
	if err != nil {
		return nil, err
	}
	ref := &faultRef{model: renderRows(model.Rows, model.Curves), sim: renderRows(sim.Rows, nil), simCells: len(sim.Rows)}
	for _, row := range model.Rows {
		ref.keys = append(ref.keys, row.Scenario.Key())
	}
	ref.probe = model.Rows[0].Scenario
	ref.probe.Load = sweep.Load{Value: model.Rows[0].LoadFlits * 1.01}
	probe, _, err := r.Evaluate(ctx, ref.probe)
	if err != nil {
		return nil, err
	}
	ref.probeCell = render(probe, probe)
	ref.keys = append(ref.keys, ref.probe.Key())
	for _, row := range sim.Rows {
		ref.keys = append(ref.keys, row.Scenario.Key())
	}
	return ref, nil
})

var planReference = sync.OnceValues(func() (string, error) {
	res, err := plan.NewLocal(nil).Run(context.Background(), faultPlanSpec())
	if err != nil {
		return "", err
	}
	if len(res.Frontier) == 0 {
		return "", errors.New("the in-process search found no frontier to compare against")
	}
	return render(res.Frontier), nil
})

// countingCache counts every cell PutCurve'd into it, by full key.
type countingCache struct {
	sweep.CacheStore
	mu   sync.Mutex
	puts map[string]int
}

func (c *countingCache) PutCurve(curve string, tokens []eval.Token, cells []sweep.Cell) {
	c.mu.Lock()
	for _, tok := range tokens {
		c.puts[string(eval.AppendJoinKey(nil, curve, tok))]++
	}
	c.mu.Unlock()
	c.CacheStore.PutCurve(curve, tokens, cells)
}

// faultDispatcher is the property's dispatcher over fl: the schedule's
// range bound and ejection count, 1 ms backoffs, and the harness's
// stream idle bound.
func faultDispatcher(t testing.TB, fl *fleettest.Fleet, opts ...Option) *Dispatcher {
	s := fl.Schedule
	return newDispatcher(t, fl.Addrs(), append([]Option{
		WithTransport(fl), WithBatch(s.Batch),
		WithShardBackoff(time.Millisecond), WithMaxShardFailures(s.MaxFails),
		withRemoteOptions(eval.WithIdleTimeout(fleettest.IdleBound), eval.WithRetry(0, time.Millisecond)),
	}, opts...)...)
}

// withRemoteOptions sets the fleet transport's options through d.ropts,
// as no production option does.
func withRemoteOptions(opts ...eval.RemoteOption) Option {
	return func(d *Dispatcher) { d.ropts = append(d.ropts, opts...) }
}

// faultOutcome is what a schedule's run leaves for a named schedule's
// expectations: the fleet's request log, and per phase the requeues,
// shard failures and ejections the dispatcher counted.
type faultOutcome struct {
	fleet  *fleettest.Fleet
	counts map[string][3]int64
}

// runSchedule runs the schedule data decodes to and checks the four
// invariants.
func runSchedule(t *testing.T, data []byte) faultOutcome {
	t.Helper()
	s := fleettest.Decode(data)
	var ref *faultRef
	var frontier string
	var err error
	if s.Plan {
		frontier, err = planReference()
	} else {
		ref, err = gridReference()
	}
	if err != nil {
		t.Fatal(err)
	}
	fl := fleettest.New(t, s)
	cache := &countingCache{CacheStore: sweep.NewCache(), puts: make(map[string]int)}
	d := faultDispatcher(t, fl, WithCache(cache))
	ctx, cancel := context.WithTimeout(context.Background(), faultDeadline)
	defer cancel()
	ctx, stop := fl.Watch(ctx, faultQuiet)
	defer stop()

	o := faultOutcome{fleet: fl, counts: make(map[string][3]int64)}
	counts := func() [3]int64 {
		st := d.Stats()
		return [3]int64{st.Requeues, st.ShardFailures, st.EjectedShards}
	}
	phase := func(name string, run func() error) {
		t.Helper()
		fl.SetPhase(name)
		before := counts()
		if err := run(); err != nil {
			if cause := context.Cause(ctx); cause != nil {
				err = fmt.Errorf("%w (%v)", err, cause)
			}
			t.Fatalf("%s: %v\nschedule %q: %+v", name, err, data, s)
		}
		after := counts()
		o.counts[name] = [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	differ := func(what string) error { return fmt.Errorf("%s differ from the in-process answer", what) }

	if s.Plan {
		phase("plan", func() error {
			res, err := plan.New(d).Run(ctx, faultPlanSpec())
			if err == nil && render(res.Frontier) != frontier {
				err = differ("the frontier's candidates")
			}
			return err
		})
		checkPuts(t, cache, nil, s)
		return o
	}

	phase("model", func() error {
		res, err := d.Run(ctx, faultModelSpec())
		if err == nil && renderRows(res.Rows, res.Curves) != ref.model {
			err = differ("rows or curves")
		}
		return err
	})
	phase("probe", func() error {
		cell, cached, err := d.Evaluate(ctx, ref.probe)
		if err == nil && (cached || render(cell, cell) != ref.probeCell) {
			err = differ(fmt.Sprintf("the probe's cell (cached %v)", cached))
		}
		return err
	})
	phase("sim", func() error {
		rows, n := make([]sweep.Row, ref.simCells), 0
		for pr := range d.Stream(ctx, faultSimSpec()) {
			if pr.Err != nil {
				return pr.Err
			}
			rows[pr.Row.Scenario.Index] = pr.Row
			n++
		}
		if n != len(rows) || renderRows(rows, nil) != ref.sim {
			return differ(fmt.Sprintf("%d streamed rows (of %d cells)", n, len(rows)))
		}
		return nil
	})
	checkPuts(t, cache, ref.keys, s)
	return o
}

// checkPuts checks invariant 2: every cell put into the coordinator's
// cache was put once, keys among them.
func checkPuts(t *testing.T, cache *countingCache, keys []string, s fleettest.Schedule) {
	t.Helper()
	for key, n := range cache.puts {
		if n != 1 {
			t.Errorf("cell %s was put into the coordinator's cache %d times, want once\nschedule %+v", key, n, s)
		}
	}
	for _, key := range keys {
		if cache.puts[key] == 0 {
			t.Errorf("cell %s was never put into the coordinator's cache\nschedule %+v", key, s)
		}
	}
}

// FuzzFleet is the fault property over schedule bytes (see runSchedule),
// seeded with every named schedule — but for the ones a named test runs
// through the property (namedExpectations) when it is not fuzzing, as
// those tests check all it would.
func FuzzFleet(f *testing.F) {
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	for _, name := range fleettest.Names() {
		if _, named := namedExpectations[name]; fuzzing || !named {
			f.Add(fleettest.Named(name))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runSchedule(t, data) })
}

// expectCounts fails t unless phase's requeues, shard failures and
// ejections are want.
func expectCounts(t *testing.T, o faultOutcome, phase string, want [3]int64) {
	t.Helper()
	if got := o.counts[phase]; got != want {
		t.Errorf("%s phase: requeues, shard failures, ejections = %v, want %v", phase, got, want)
	}
}

// namedExpectations are, per named schedule that a test below runs
// through the property, the expectations the invariants leave to it.
var namedExpectations = map[string]func(*testing.T, faultOutcome){
	// A shard that tears its streams mid-line loses its ranges to the
	// healthy one.
	"torn-stream": func(t *testing.T, o faultOutcome) { expectCounts(t, o, "model", [3]int64{1, 1, 1}) },
	// A shard answering a range with 429 Retry-After: 1 sits out the
	// second it asked for, not just the 1 ms backoff, while the other
	// shard takes the range.
	"retry-after": func(t *testing.T, o faultOutcome) {
		expectCounts(t, o, "model", [3]int64{1, 1, 0})
		if gap, ok := o.fleet.Gap("model", 0, "sweep/part"); ok && gap < 900*time.Millisecond {
			t.Errorf("shard 0 was offered a range %v after its 429, inside its 1 s Retry-After", gap)
		}
	},
	// The idle watchdog under the dispatcher's stream reader: only its
	// cancel gets a caller off the shard that went silent, and only its
	// per-line reset keeps the heartbeating one from being cut off too.
	"stalled-stream": func(t *testing.T, o faultOutcome) {
		t.Run("Dispatcher", func(t *testing.T) {
			// The stalled range's delivered cell is kept and only its
			// remainder requeued: invariant 2 would see the cell twice.
			expectCounts(t, o, "model", [3]int64{1, 1, 1})
		})
	},
	// Keepalive lines are transparent, before a range's first cell or
	// between its cells, even when they run past the idle bound.
	"heartbeats": func(t *testing.T, o faultOutcome) {
		for _, phase := range []string{"model", "sim"} {
			expectCounts(t, o, phase, [3]int64{})
		}
	},
	// The curve request rides the transport's retry loop, so a dead first
	// shard costs one refused attempt.
	"curve-failover": func(t *testing.T, o faultOutcome) {
		if a, b := o.fleet.Count("model", 0, "curve"), o.fleet.Count("model", 1, "curve"); a != 1 || b != 1 {
			t.Errorf("%d and %d /v1/curve attempt(s), want one refused and one answered", a, b)
		}
	},
	// The killed shard saw two cell requests: it died mid-plan, on an
	// operating point or the certification.
	"plan-kill-shard-0": func(t *testing.T, o faultOutcome) { expectKilledMidPlan(t, o, 0) },
	"plan-kill-shard-1": func(t *testing.T, o faultOutcome) { expectKilledMidPlan(t, o, 1) },
}

func expectKilledMidPlan(t *testing.T, o faultOutcome, shard int) {
	if n := o.fleet.Count("plan", shard, "eval"); n < 2 {
		t.Errorf("shard %d saw %d cell request(s): the plan ended before it died", shard, n)
	}
}

// runNamed runs the named schedule through the property and checks its
// expectations.
func runNamed(t *testing.T, name string) {
	namedExpectations[name](t, runSchedule(t, fleettest.Named(name)))
}

// TestDispatchedFigure3SurvivesShardKill pins the failover guarantee on
// the paper's Figure 3 grid, over the shard-kill schedule: a shard torn
// mid-range and then dead costs nothing but requeues, and the streamed
// result is still identical to the in-process run.
func TestDispatchedFigure3SurvivesShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure3 grid in -short mode")
	}
	local := localFigure3(t)
	fl := fleettest.New(t, fleettest.Decode(fleettest.Named("shard-kill")))
	// A figure3 cell may compute for longer than the harness's idle
	// bound; the schedule stalls nothing.
	d := faultDispatcher(t, fl, WithCache(sweep.NewCache()), withRemoteOptions(eval.WithIdleTimeout(time.Minute)))
	spec, err := sweep.Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sweep.Row, len(local.Rows))
	delivered := 0
	for pr := range d.Stream(context.Background(), spec) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		rows[pr.Row.Scenario.Index] = pr.Row
		delivered++
	}
	if delivered != len(local.Rows) {
		t.Errorf("the stream delivered %d row(s) for %d cells", delivered, len(local.Rows))
	}
	diffRows(t, local.Rows, rows)
	if st := d.Stats(); st.ShardFailures == 0 || st.EjectedShards != 1 || st.Requeues == 0 {
		t.Errorf("want failures, one ejection and requeues: %+v", st)
	}
}

func TestTornStreamStolenByHealthyShard(t *testing.T) { runNamed(t, "torn-stream") }

func TestDispatcherHonoursRetryAfter(t *testing.T) { runNamed(t, "retry-after") }

func TestStalledStreamIsStolen(t *testing.T) { runNamed(t, "stalled-stream") }

func TestDispatcherSkipsHeartbeats(t *testing.T) { runNamed(t, "heartbeats") }

func TestCurveRequestFailsOver(t *testing.T) { runNamed(t, "curve-failover") }

// countingEngine counts the cells a plan asks its engine for one at a
// time, model-only and simulated apart.
type countingEngine struct {
	plan.Engine
	model, sim atomic.Int64
}

func (e *countingEngine) Evaluate(ctx context.Context, sc sweep.Scenario) (sweep.Cell, bool, error) {
	if sc.WithSim {
		e.sim.Add(1)
	} else {
		e.model.Add(1)
	}
	return e.Engine.Evaluate(ctx, sc)
}

// TestPlanSendsOnlyItsReportedCells: over a two-shard fleet, a capacity
// plan's /v1/eval requests are its operating points — one or two
// attempts per refined candidate — and its certifications, one request
// each; the load search's probes never leave the process.
func TestPlanSendsOnlyItsReportedCells(t *testing.T) {
	fl := fleettest.New(t, fleettest.Decode([]byte("p2010")))
	d := newDispatcher(t, fl.Addrs(), WithTransport(fl))
	spec, err := plan.Builtin("bft-capacity")
	if err != nil {
		t.Fatal(err)
	}
	eng := &countingEngine{Engine: d}
	fl.SetPhase("plan")
	res, err := plan.New(eng).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	ops, sims := int(eng.model.Load()), int(eng.sim.Load())
	if ops < st.Refined || ops > 2*st.Refined {
		t.Errorf("the engine answered %d model-only cells for %d refined candidates (%d probes): the search reached it",
			ops, st.Refined, st.Probes)
	}
	if sims != st.SimEvals {
		t.Errorf("the engine answered %d simulated cells for %d certifications", sims, st.SimEvals)
	}
	n := fl.Count("plan", 0, "eval") + fl.Count("plan", 1, "eval")
	if n != ops+sims {
		t.Errorf("the fleet saw %d /v1/eval requests for %d operating points and %d certifications",
			n, ops, sims)
	}
	t.Logf("%d /v1/eval requests: %d operating point(s), %d certification(s); %d probes in all", n, ops, sims, st.Probes)
}

// TestPlanSurvivesShardKill is the planner's failover pin: whichever of
// the two shards dies mid-plan, the frontier equals the in-process
// plan's.
func TestPlanSurvivesShardKill(t *testing.T) {
	for _, name := range []string{"plan-kill-shard-0", "plan-kill-shard-1"} {
		t.Run(name, func(t *testing.T) { runNamed(t, name) })
	}
}

// TestPlanFaultsReachThePlansRequests: the fault-free plan sends its fleet
// fleettest.PlanEvals cell requests, at least PlanEvals/shards to each
// shard, and a plan schedule's eval faults are decoded onto one of those,
// so a fuzzed plan fault fires; a plan-kill seed keeps its second request.
func TestPlanFaultsReachThePlansRequests(t *testing.T) {
	for shards := 1; shards <= 3; shards++ {
		o := runSchedule(t, []byte(fmt.Sprintf("p%d010", shards)))
		share := fleettest.PlanEvals / shards
		if n := o.fleet.Count("plan", -1, "eval"); n != fleettest.PlanEvals {
			t.Errorf("%d shard(s): the plan sent %d cell requests, want %d", shards, n, fleettest.PlanEvals)
		}
		for shard := 0; shard < shards; shard++ {
			if n := o.fleet.Count("plan", shard, "eval"); n < share {
				t.Errorf("%d shard(s): shard %d got %d cell requests, want at least %d", shards, shard, n, share)
			}
		}
		for nth := 0; nth <= 9; nth++ {
			s := fleettest.Decode([]byte(fmt.Sprintf("p%d010 0e%dt0 0p%dt0", shards, nth, nth)))
			eval, part := s.Faults[0], s.Faults[1]
			if nth > 0 && (eval.Nth < 1 || eval.Nth > share) || nth == 0 && eval.Nth != 0 || part.Nth != nth {
				t.Errorf("%d shard(s), nth %d: decoded eval nth %d (want in [1, %d]), sweep/part nth %d",
					shards, nth, eval.Nth, share, part.Nth)
			}
		}
	}
	for _, name := range []string{"plan-kill-shard-0", "plan-kill-shard-1"} {
		if f := fleettest.Decode(fleettest.Named(name)).Faults; len(f) != 1 || f[0].Nth != 2 {
			t.Errorf("%s decodes to %+v, want its one fault at the second request", name, f)
		}
	}
}
