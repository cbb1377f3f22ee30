package sweep

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzCurveKey: for every cell of a grid Validate accepts, the cell's
// curve key joined with its token is Scenario.Key byte for byte, and
// splitting that key gives back the curve key and the token. The seeds
// cover a trace workload, simulated cells (seed=, drain=, prec=, reps=),
// bounds=true, every variant and absolute loads.
func FuzzCurveKey(f *testing.F) {
	f.Add(uint8(0), 64, 0, 16, uint8(0), uint8(0), false, 0, 0, uint64(0), 0, 0.0, 0, true, 0.5, "", uint8(0), false)
	f.Add(uint8(0), 64, 0, 32, uint8(1), uint8(1), true, 400, 2000, uint64(7), 300, 0.05, 2, true, 0.8, "", uint8(0), true)
	f.Add(uint8(1), 4, 0, 8, uint8(0), uint8(2), true, 100, 900, uint64(1<<63), 0, 0.0, 0, false, 0.01, "", uint8(1), false)
	f.Add(uint8(2), 2, 4, 16, uint8(0), uint8(3), false, 0, 0, uint64(0), 0, 0.0, 0, false, 0.002, "", uint8(0), true)
	f.Add(uint8(0), 16, 0, 16, uint8(0), uint8(4), true, 10, 20, uint64(3), 0, 0.0, 0, true, 0.3, "runs/t.ndjson", uint8(0), true)
	f.Add(uint8(0), 16, 0, 4, uint8(1), uint8(0), false, 0, 0, uint64(0), 0, 0.0, 0, false, 1e-300, "", uint8(2), false)
	f.Fuzz(func(t *testing.T, family uint8, size, k, flits int, policy, variant uint8, withSim bool,
		warmup, measure int, seed uint64, drain int, prec float64, reps int, frac bool, load float64,
		trace string, pattern uint8, bounds bool) {
		spec := Spec{
			Topologies: []TopologySpec{{Family: []string{FamilyBFT, FamilyHypercube, FamilyTorus}[family%3], Sizes: []int{size}, K: k}},
			MsgFlits:   []int{flits},
			Policies:   []string{[]string{sim.PairQueue.String(), sim.RandomFixed.String()}[policy%2]},
			WithSim:    withSim,
			Budget:     Budget{Warmup: warmup, Measure: measure, Seed: seed, DrainLimit: drain, Precision: prec, Replicas: reps},
		}
		// Every variant is the paper's model with one toggle, or all of
		// them; a grid with variants simulates the first.
		all := []Variant{
			{Name: "paper", WithSim: withSim},
			{Name: "nb", NoBlockingCorrection: true},
			{Name: "ss", SingleServerGroups: true},
			{Name: "np", NoPairRateCorrection: true},
			{Name: "all", NoBlockingCorrection: true, SingleServerGroups: true, NoPairRateCorrection: true},
		}
		if v := int(variant % 6); v > 0 {
			spec.Variants = []Variant{all[0], all[v-1]}
			if v == 1 {
				spec.Variants = all
			}
		}
		if trace != "" {
			spec.Workloads = []workload.Spec{{}, {Name: "trace", Trace: trace}}
		} else if p := []string{"", workload.PatternTranspose, workload.PatternUniform}[pattern%3]; p != "" {
			spec.Workloads = []workload.Spec{{Pattern: p}}
		}
		// Two loads, the second repeating the first: a curve without the
		// simulator keeps one of them, a simulated curve both.
		if frac {
			spec.Loads = LoadSpec{Fracs: []float64{load, load}}
		} else {
			spec.Loads = LoadSpec{Flits: []float64{load, load}}
		}
		if bounds {
			spec.Backends = []string{BackendModel, BackendBounds}
			if withSim {
				spec.Backends = append(spec.Backends, BackendSim)
			}
		}
		if spec.Validate() != nil || spec.cells() > 256 {
			return
		}
		g, err := ExpandGrid(spec)
		if err != nil {
			t.Fatalf("a valid spec does not expand: %v", err)
		}
		for _, c := range g.Curves {
			for i := c.Start; i < c.End; i++ {
				sc := &g.Rows[i].Scenario
				key, tok := sc.Key(), sc.Token()
				if joined := string(eval.AppendJoinKey(nil, c.Key, tok)); joined != key {
					t.Fatalf("cell %d: curve key %q joined with %+v is\n%q, Key() is\n%q", i, c.Key, tok, joined, key)
				}
				curve, back, ok := eval.SplitKey(nil, key)
				if !ok || string(curve) != c.Key || back != tok {
					t.Fatalf("cell %d: SplitKey(%q) = %q, %+v, %v; want %q, %+v", i, key, curve, back, ok, c.Key, tok)
				}
			}
		}
	})
}

// TestSplitKeyRefusesWhatJoinWouldNotWrite: a key whose load or seed is
// spelled in any other form than the one AppendJoinKey writes, that has
// no load, or that does not begin with family= (a legacy salted key) does
// not split — the cache's full-key adapters would otherwise file it under
// another cell's slot, or under a curve no scenario names.
func TestSplitKeyRefusesWhatJoinWouldNotWrite(t *testing.T) {
	sc := Scenario{Topology: Topology{Family: FamilyBFT, Size: 16}, MsgFlits: 16, Load: Load{Value: 0.25}, WithSim: true, Budget: Budget{Seed: 3}}
	key := sc.Key()
	if _, _, ok := eval.SplitKey(nil, key); !ok {
		t.Fatalf("SplitKey refuses %q", key)
	}
	for _, bad := range []string{
		"no load here",
		"backends=remote(a,b)|" + key,
		" " + key,
		"family=bft size=16 k=0 flits=16 policy=pairqueue frac=false load= sim=false",
		"family=bft size=16 k=0 flits=16 policy=pairqueue frac=false load=0.25 sim=false",
		"family=bft size=16 k=0 flits=16 policy=pairqueue frac=false load=0x2p-03 sim=false",
		"family=bft size=16 k=0 flits=16 policy=pairqueue frac=false load=0x1p-02 sim=true warmup=0 measure=0 seed=03",
		"family=bft size=16 k=0 flits=16 policy=pairqueue frac=false load=0x1p-02 sim=true warmup=0 measure=0 seed=",
	} {
		if curve, tok, ok := eval.SplitKey(nil, bad); ok {
			t.Errorf("SplitKey(%q) = %q, %+v: want a refusal", bad, curve, tok)
		}
	}
}

// TestEvaluateAllocs: a one-cell probe through a Runner with a Cache
// costs its curve key and nothing else, hit or miss, on a curve the
// cache holds or on a new one (whose entry holds its first cell inline):
// the one allocation Scenario.Key cost when the cache was keyed by cell.
func TestEvaluateAllocs(t *testing.T) {
	scens, err := Expand(modelGrid())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r := NewRunner()
	if _, err := r.Run(ctx, modelGrid()); err != nil { // build every model first
		t.Fatal(err)
	}
	r.Cache = NewCache()
	n := 0
	miss := testing.AllocsPerRun(400, func() {
		if _, cached, err := r.Evaluate(ctx, scens[n]); err != nil || cached {
			t.Fatalf("cell %d: cached %v, %v", n, cached, err)
		}
		n++
	})
	n = 0
	hit := testing.AllocsPerRun(400, func() {
		if _, cached, err := r.Evaluate(ctx, scens[n]); err != nil || !cached {
			t.Fatalf("cell %d: cached %v, %v", n, cached, err)
		}
		n++
	})
	t.Logf("Evaluate: %v allocations a miss, %v a hit", miss, hit)
	budget := 1.0
	if race.Enabled {
		budget = 3 // sync.Pool drops Puts under the detector
	}
	if miss > budget || hit > budget {
		t.Errorf("Evaluate allocates %v times a miss and %v a hit, budget %v", miss, hit, budget)
	}
}

// stopScheduler computes cold cells in grid order on one goroutine and
// ends the run at cell stopAt: it cancels the run's context when cancel
// is set, and fails the cell otherwise.
type stopScheduler struct {
	localPool
	stopAt int
	cancel context.CancelFunc
}

func (s stopScheduler) Schedule(ctx context.Context, g *Grid, _ int, land func(lo, hi int)) error {
	for i := range g.Rows {
		if g.Rows[i].Cached {
			continue
		}
		if i == s.stopAt {
			if s.cancel != nil {
				s.cancel()
				return ctx.Err()
			}
			return g.CellError(i, errors.New("planted failure"))
		}
		cell, err := s.Compute(ctx, g.Rows[i].Scenario)
		if err != nil {
			return g.CellError(i, err)
		}
		g.Rows[i].Cell = cell
		land(i, i+1)
	}
	return nil
}

// TestLandedCellsSurvivePartialCurve: a Run that fails or is cancelled
// part-way through a curve still caches every cell that landed before it
// ended, the landed part of the unfinished curve included (the promise
// of Run's doc comment), and none that did not land. A write-back that
// put a curve only once it was complete would lose the partial one. So
// does a curve answered in one call that panics on its fifth cell: the
// four before it are cached.
func TestLandedCellsSurvivePartialCurve(t *testing.T) {
	t.Run("panicked", func(t *testing.T) {
		spec := oneCurve()
		scens, err := Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCache()
		r := NewRunner(WithCache(cache))
		r.Scheduler = localPool{NewRunner(WithBackends(curvePanic{eval.NewAnalyticBackend()}))}
		if _, err := r.Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "backend panic on cell "+scens[4].Key()) {
			t.Fatalf("Run = %v, want the fifth cell's backend panic", err)
		}
		for i, sc := range scens {
			if _, ok := cache.Get(sc.Key()); ok != (i < 4) {
				t.Errorf("cell %d: cached %v after a panic on cell 4", i, ok)
			}
		}
	})

	spec := modelGrid()
	spec.Topologies[0].Sizes = []int{16, 64}
	spec.MsgFlits, spec.Variants = []int{16}, nil
	scens, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 40 // the ninth cell of the second 32-load curve
	for _, cancels := range []bool{true, false} {
		name := map[bool]string{true: "cancelled", false: "failed"}[cancels]
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cache := NewCache()
			r := NewRunner(WithCache(cache))
			sched := stopScheduler{localPool: localPool{NewRunner()}, stopAt: stopAt}
			if cancels {
				sched.cancel = cancel
			}
			r.Scheduler = sched
			_, err := r.Run(ctx, spec)
			if cancels && !errors.Is(err, context.Canceled) || !cancels && (err == nil || errors.Is(err, context.Canceled)) {
				t.Fatalf("Run = %v", err)
			}
			if _, fresh := r.Counts(); fresh != stopAt {
				t.Fatalf("%d cells landed, want %d", fresh, stopAt)
			}
			for i, sc := range scens {
				cell, ok := cache.Get(sc.Key())
				if ok != (i < stopAt) {
					t.Errorf("cell %d (curve %d): cached %v after the run %s at cell %d", i, i/32, ok, name, stopAt)
				} else if ok && math.IsNaN(cell.Model) {
					t.Errorf("cell %d: cached %+v", i, cell)
				}
			}
			if cache.Len() != stopAt {
				t.Errorf("cache holds %d cells, want %d", cache.Len(), stopAt)
			}
		})
	}
}

// TestCacheSlots: a Cache finds a curve's cells whatever order they were
// put and asked for in — past the 32 a scan covers too, where the curve
// is indexed — and keeps one slot per token (a later put wins). A key
// its full-key adapters cannot split (eval.SplitKey refuses it) is not a
// cell's key: Put stores nothing under it and reports false, and Get
// misses.
func TestCacheSlots(t *testing.T) {
	const curve, n = "a curve key", 100
	toks := make([]eval.Token, n)
	cells := make([]Cell, n)
	for i := range toks {
		toks[i] = eval.Token{Load: uint64(i + 1)}
		cells[i] = eval.NewPoint()
		cells[i].Model = float64(i)
	}
	c := NewCache()
	c.PutCurve(curve, toks[:n/2], cells[:n/2])
	for i := n - 1; i >= n/2-10; i-- { // backwards, ten of them again
		cells[i].Model = float64(i)
		c.PutCurve(curve, toks[i:i+1], cells[i:i+1])
	}
	if c.Len() != n {
		t.Fatalf("Len %d, want %d", c.Len(), n)
	}
	got, found := make([]Cell, n), make([]bool, n)
	rev := make([]eval.Token, n)
	for i := range rev {
		rev[i] = toks[n-1-i]
	}
	if hits := c.GetCurve(curve, rev, got, found); hits != n {
		t.Fatalf("%d of %d cells found", hits, n)
	}
	for i := range rev {
		if got[i].Model != float64(n-1-i) {
			t.Errorf("token %+v holds %v, want %v", rev[i], got[i].Model, n-1-i)
		}
	}
	if c.GetCurve("another curve", rev[:1], got, found) != 0 || found[0] {
		t.Error("a cell found on a curve never put")
	}

	cell := eval.NewPoint()
	cell.Model = 7
	sc := Scenario{Topology: Topology{Family: FamilyBFT, Size: 16}, MsgFlits: 16, Load: Load{Value: 0.25}}
	for _, bad := range []string{"not a key", "backends=analytic|" + sc.Key()} {
		if _, _, ok := eval.SplitKey(nil, bad); ok {
			t.Fatalf("SplitKey accepts %q", bad)
		}
		if c.Put(bad, cell) {
			t.Errorf("Put(%q) reported a change", bad)
		}
		if back, ok := c.Get(bad); ok || c.Len() != n {
			t.Errorf("Get of a key outside the grammar = %+v, %v; Len %d", back, ok, c.Len())
		}
	}
	seen := 0
	c.Range(func(key string, cell Cell) bool {
		seen++
		return true
	})
	if seen != n {
		t.Errorf("Range saw %d cells, want %d", seen, n)
	}
}

// TestCacheDelete: Delete drops exactly the cell under a full key — first,
// middle or last on its curve, on a scanned curve and an indexed one — and
// a curve whose last cell goes is gone, ready to be put afresh; a key the
// cache does not hold, or one outside the grammar, changes nothing.
func TestCacheDelete(t *testing.T) {
	c := NewCache()
	want := map[string]float64{}
	put := func(key string, model float64) {
		cell := eval.NewPoint()
		cell.Model = model
		c.Put(key, cell)
		want[key] = model
	}
	key := func(size string, i int) string {
		return string(eval.AppendJoinKey(nil, "family=bft size="+size+" k=0 flits=4 policy=pairqueue frac=true load= sim=false",
			eval.Token{Load: math.Float64bits(float64(i+1) / 128)}))
	}
	var long, short []string // an indexed curve and a scanned one
	for i := 0; i < 40; i++ {
		long = append(long, key("64", i))
		put(long[i], float64(i))
		if i < 5 {
			short = append(short, key("16", i))
			put(short[i], float64(i))
		}
	}
	check := func(when string) {
		t.Helper()
		if c.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", when, c.Len(), len(want))
		}
		seen := 0
		c.Range(func(key string, cell Cell) bool {
			if model, ok := want[key]; !ok || cell.Model != model {
				t.Fatalf("%s: Range gives %q holding %v; want %v, %v", when, key, cell.Model, model, ok)
			}
			seen++
			return true
		})
		if seen != len(want) {
			t.Fatalf("%s: Range saw %d cells, want %d", when, seen, len(want))
		}
		for _, key := range append(append([]string{"not a key"}, long...), short...) {
			model, live := want[key]
			if cell, ok := c.Get(key); ok != live || ok && cell.Model != model {
				t.Fatalf("%s: Get(%q) = %v, %v; want %v, %v", when, key, cell.Model, ok, model, live)
			}
		}
	}
	del := func(key string) {
		c.Delete(key)
		delete(want, key)
		check("deleting " + key)
	}
	for _, i := range []int{0, 39, 17, 1, 38} {
		del(long[i])
	}
	del(long[0]) // again: a no-op
	for _, i := range []int{4, 0, 2, 1, 3} {
		del(short[i])
	}
	c.Delete("not a key")
	check("deleting a key outside the grammar")
	put(short[2], 99) // the emptied curve, afresh
	check("putting the emptied curve again")
}
