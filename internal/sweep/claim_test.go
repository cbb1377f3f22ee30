package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/race"
)

// samePoint reports the first field on which two points differ, bit for
// bit with NaN equal to NaN, or "" when they agree on every field.
func samePoint(a, b eval.Point) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for f := 0; f < va.NumField(); f++ {
		x, y := va.Field(f), vb.Field(f)
		switch x.Kind() {
		case reflect.Float64:
			p, q := x.Float(), y.Float()
			if math.Float64bits(p) != math.Float64bits(q) && !(math.IsNaN(p) && math.IsNaN(q)) {
				return va.Type().Field(f).Name
			}
		default:
			if x.Interface() != y.Interface() {
				return va.Type().Field(f).Name
			}
		}
	}
	return ""
}

// FuzzCurvePath: whatever spec Validate accepts, the rows a Run returns —
// its model-only curves answered a curve at a time, landed in place —
// are the cells the per-cell path (Runner.Evaluate, one scenario at a
// time) answers, on every Point field, at 1 and 3 workers, with and
// without a cache (whose second Run serves every cell). A spec the
// per-cell path fails on fails the Run, and a Stream at one worker with
// the first failing cell's error, named by CellError.
func FuzzCurvePath(f *testing.F) {
	for _, body := range []string{
		// Every family under every variant, fractional loads.
		`{"topologies":[{"family":"bft","sizes":[16,64]},{"family":"hypercube","sizes":[3]},{"family":"torus","sizes":[2],"k":4}],"msg_flits":[8],"variants":[{"name":"paper"},{"name":"nb","no_blocking_correction":true},{"name":"ss","single_server_groups":true},{"name":"pe","no_pair_rate_correction":true}],"loads":{"points":4,"max_frac":0.95}}`,
		// The bound calculus beside the model.
		`{"topologies":[{"family":"bft","sizes":[16,64]},{"family":"hypercube","sizes":[3]}],"msg_flits":[8,16],"backends":["model","bounds"],"loads":{"fracs":[0.2,0.6,0.9]}}`,
		// A workload outside the model's assumptions: ModelNA.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],"workloads":[{"name":"hot","pattern":"hotspot","hot":[0],"hot_frac":0.3}],"loads":{"fracs":[0.3,0.5]}}`,
		// Absolute loads, one repeated, one past saturation.
		`{"topologies":[{"family":"bft","sizes":[16,64]}],"msg_flits":[8],"loads":{"flits":[0.02,0.05,0.02,0.9]}}`,
		// A fractional load past saturation.
		`{"topologies":[{"family":"torus","sizes":[3],"k":4}],"msg_flits":[16],"loads":{"fracs":[0.5,1.2]}}`,
		// Simulated curves, a repeated load on them kept.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],"loads":{"flits":[0.02,0.02,0.04]},"with_sim":true,"budget":{"warmup":100,"measure":400,"seed":3}}`,
		// An invalid size: the per-cell path and the Run both refuse it.
		`{"topologies":[{"family":"bft","sizes":[16,5]}],"msg_flits":[8],"loads":{"fracs":[0.2,0.5]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil || spec.Validate() != nil || spec.cells() > 256 {
			return
		}
		if spec.withSim() {
			// Capped small: the property is about plumbing, not engines.
			if spec.cells() > 32 {
				return
			}
			for _, ts := range spec.Topologies {
				for _, n := range ts.Sizes {
					if n > 64 {
						return
					}
				}
			}
			b := &spec.Budget
			b.Warmup, b.Measure = min(b.Warmup, 200), min(b.Measure, 800)
			b.DrainLimit, b.Replicas, b.Precision = min(b.DrainLimit, 2000), min(b.Replicas, 2), 0
		}
		ctx := context.Background()
		g, err := ExpandGrid(spec)
		if err != nil {
			t.Fatalf("a valid spec does not expand: %v", err)
		}
		ref := NewRunner(WithWorkers(1))
		want := make([]eval.Point, len(g.Rows))
		var firstErr error
		for i := range g.Rows {
			cell, _, err := ref.Evaluate(ctx, g.Rows[i].Scenario)
			if err != nil && firstErr == nil {
				firstErr = g.CellError(i, err)
			}
			want[i] = cell
		}
		if firstErr != nil {
			if _, err := NewRunner(WithWorkers(3)).Run(ctx, spec); err == nil {
				t.Fatalf("the per-cell path fails (%v), the Run does not", firstErr)
			}
			var got error
			for pr := range NewRunner(WithWorkers(1)).Stream(ctx, spec) {
				got = pr.Err
			}
			if got == nil || got.Error() != firstErr.Error() {
				t.Fatalf("Stream fails with %v, want %v", got, firstErr)
			}
			return
		}
		for _, workers := range []int{1, 3} {
			for _, cached := range []bool{false, true} {
				r := NewRunner(WithWorkers(workers))
				runs := 1
				if cached {
					r.Cache, runs = NewCache(), 2
				}
				for run := 0; run < runs; run++ {
					res, err := r.Run(ctx, spec)
					if err != nil {
						t.Fatalf("workers %d, cache %v, run %d: %v", workers, cached, run, err)
					}
					if len(res.Rows) != len(want) {
						t.Fatalf("workers %d: %d rows, want %d", workers, len(res.Rows), len(want))
					}
					for i, row := range res.Rows {
						if row.Scenario != g.Rows[i].Scenario || row.Cached != (run == 1) {
							t.Fatalf("workers %d, cache %v, run %d, row %d: scenario %+v cached %v", workers, cached, run, i, row.Scenario, row.Cached)
						}
						if field := samePoint(row.Cell, want[i]); field != "" {
							t.Fatalf("workers %d, cache %v, run %d, cell %d (%s): %s is %+v, the per-cell path's %+v",
								workers, cached, run, i, row.Scenario.Key(), field, row.Cell, want[i])
						}
					}
				}
			}
		}
	})
}

// rendezvous is a per-cell backend whose calls each wait until two have
// been in flight at once, failing after 5 s.
type rendezvous struct {
	calls atomic.Int32
	met   chan struct{}
}

func (b *rendezvous) Name() string { return "sim" }

func (b *rendezvous) Evaluate(ctx context.Context, sc Scenario) (eval.Point, error) {
	if b.calls.Add(1) == 2 {
		close(b.met)
	}
	select {
	case <-b.met:
		return eval.NewPoint(), nil
	case <-time.After(5 * time.Second):
		return eval.Point{}, errors.New("no second call in flight within 5 s")
	}
}

// TestSimulatedCurveIsClaimedPerCell: the cells of a simulated curve are
// claimed one at a time, so two workers answer one curve side by side —
// figure3's three curves of ten loads stay balanced on two workers. A
// pool that claimed the curve whole would answer its cells in series and
// the first would wait alone.
func TestSimulatedCurveIsClaimedPerCell(t *testing.T) {
	spec := validSpec()
	spec.Loads = LoadSpec{Fracs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}}
	be := &rendezvous{met: make(chan struct{})}
	if _, err := NewRunner(WithWorkers(2), WithBackends(be)).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
}

// curveCounter counts the curve calls and the per-cell calls it gets.
type curveCounter struct {
	*eval.AnalyticBackend
	curves, cells atomic.Int32
}

func (c *curveCounter) Evaluate(ctx context.Context, sc Scenario) (eval.Point, error) {
	c.cells.Add(1)
	return c.AnalyticBackend.Evaluate(ctx, sc)
}

func (c *curveCounter) EvaluateCurve(ctx context.Context, cells eval.Cells) (int, error) {
	c.curves.Add(1)
	return c.AnalyticBackend.EvaluateCurve(ctx, cells)
}

// TestModelCurveIsClaimedWhole: an untraced Run claims a model-only
// curve's cold cells whole and a backend that answers curves answers
// each in one call, never a cell at a time.
func TestModelCurveIsClaimedWhole(t *testing.T) {
	spec := modelGrid()
	g, err := ExpandGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	be := &curveCounter{AnalyticBackend: eval.NewAnalyticBackend()}
	if _, err := NewRunner(WithWorkers(2), WithBackends(be)).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if curves, cells := be.curves.Load(), be.cells.Load(); curves != int32(len(g.Curves)) || cells != 0 {
		t.Errorf("%d curve calls and %d cell calls over %d cold curves, want one curve call each", curves, cells, len(g.Curves))
	}
}

// TestRunAllocsIndependentOfCurves: once a runner's models are built, a
// Run without a cache allocates nothing per curve or per segment: a grid
// of 64 curves costs what a grid of 16 does, expansion aside (its key
// chunks follow the curve keys' bytes; TestExpandKeyedAllocs pins them).
func TestRunAllocsIndependentOfCurves(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(WithWorkers(2))
	runAllocs := func(spec Spec) float64 {
		if _, err := r.Run(ctx, spec); err != nil { // build the models first
			t.Fatal(err)
		}
		run := testing.AllocsPerRun(20, func() {
			if _, err := r.Run(ctx, spec); err != nil {
				t.Fatal(err)
			}
		})
		expand := testing.AllocsPerRun(20, func() {
			if _, err := ExpandGrid(spec); err != nil {
				t.Fatal(err)
			}
		})
		return run - expand
	}
	small := modelGrid()
	small.Topologies[0].Sizes = []int{16, 64}
	small.MsgFlits = []int{8, 16} // 2 × 2 × 4 variants: 16 curves
	large := modelGrid()
	large.MsgFlits = []int{8, 16, 32, 64} // 4 × 4 × 4: 64 curves
	a, b := runAllocs(small), runAllocs(large)
	t.Logf("a Run beyond its expansion: %v allocations on 16 curves, %v on 64", a, b)
	if a != b && !race.Enabled { // sync.Pool drops Puts under the detector: a workspace per graph curve
		t.Errorf("a Run allocates %v times on 16 curves and %v on 64: something is allocated per curve", a, b)
	}
}

// deadFleet is a Scheduler that fails every call, as a fleet with no
// shard left does.
type deadFleet struct{}

var errDeadFleet = errors.New("no shard left")

func (deadFleet) Schedule(context.Context, *Grid, int, func(lo, hi int)) error { return errDeadFleet }

func (deadFleet) Compute(context.Context, Scenario) (Cell, error) { return Cell{}, errDeadFleet }

func (deadFleet) Curves(context.Context, *Grid) ([]eval.CurveDesc, error) { return nil, errDeadFleet }

// TestEvaluateListAnswersOnItsOwnPool: EvaluateList is a shard's list
// path on the runner's own pool and backends, whatever its Scheduler. On
// a runner whose Scheduler fails every call it still answers every cell
// of a model grid and of a simulated one — the cells an in-process Run
// computes, on every Point field — while Evaluate, which does go through
// the Scheduler, fails.
func TestEvaluateListAnswersOnItsOwnPool(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []Spec{modelGrid(), tinySpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			want, err := NewRunner().Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ExpandGrid(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(WithWorkers(2), WithCache(NewCache()))
			r.Scheduler = deadFleet{}
			got := make([]Cell, len(g.Rows))
			var answered atomic.Int32
			r.EvaluateList(ctx, g, 0, len(g.Rows), func(i int, cell Cell, err error) {
				if err != nil {
					t.Errorf("cell %d: %v", i, err)
					return
				}
				got[i] = cell
				answered.Add(1)
			})
			if int(answered.Load()) != len(g.Rows) {
				t.Fatalf("EvaluateList answered %d of %d cells", answered.Load(), len(g.Rows))
			}
			for i := range got {
				if f := samePoint(got[i], want.Rows[i].Cell); f != "" {
					t.Errorf("cell %d: %s differs from the in-process run's", i, f)
				}
			}
			off := g.Rows[0].Scenario
			off.Load.Value *= 0.5 // not on the grid, so not in the cache
			if _, _, err := r.Evaluate(ctx, off); !errors.Is(err, errDeadFleet) {
				t.Errorf("Evaluate = %v, want the Scheduler's failure", err)
			}
		})
	}
}
