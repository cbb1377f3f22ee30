package sweep

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
)

// collect drains a stream within the given timeout, failing the test if
// the channel does not close in time.
func collect(t *testing.T, ch <-chan PointResult, timeout time.Duration) []PointResult {
	t.Helper()
	var out []PointResult
	deadline := time.After(timeout)
	for {
		select {
		case pr, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, pr)
		case <-deadline:
			t.Fatalf("stream did not close within %v (%d results so far)", timeout, len(out))
		}
	}
}

func TestStreamReportsSpecErrors(t *testing.T) {
	bad := tinySpec()
	bad.MsgFlits = nil
	got := collect(t, (&Runner{}).Stream(context.Background(), bad), time.Minute)
	if len(got) != 1 || got[0].Err == nil {
		t.Fatalf("want exactly one error result, got %+v", got)
	}
	if !strings.Contains(got[0].Err.Error(), "msg_flits") {
		t.Errorf("unexpected error: %v", got[0].Err)
	}
}

func TestStreamScenarioErrorEndsStream(t *testing.T) {
	spec := tinySpec()
	spec.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
	got := collect(t, (&Runner{Workers: 2}).Stream(context.Background(), spec), time.Minute)
	if len(got) == 0 {
		t.Fatal("stream closed with no results")
	}
	last := got[len(got)-1]
	if last.Err == nil {
		t.Fatalf("stream should end with an error, got %+v", got)
	}
	for _, pr := range got[:len(got)-1] {
		if pr.Err != nil {
			t.Errorf("mid-stream error result: %v", pr.Err)
		}
	}
}

// slowSpec is sized so a sweep takes long enough to cancel mid-flight.
func slowSpec() Spec {
	return Spec{
		Name:       "slow",
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{8, 16},
		Loads:      LoadSpec{Fracs: []float64{0.2, 0.4, 0.6, 0.8}},
		WithSim:    true,
		Budget:     Budget{Warmup: 10000, Measure: 150000, Seed: 5},
	}
}

// TestStreamCancelClosesPromptlyWithoutLeak pins the cancellation
// contract: a consumer that cancels mid-sweep sees the channel close
// promptly (in-flight simulations abort inside their cycle loop), no
// goroutine is left behind, and the cache stays consistent — cells
// completed before the cancellation are reusable and a rerun against the
// same cache matches a clean run exactly.
func TestStreamCancelClosesPromptlyWithoutLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cache := NewCache()
	r := &Runner{Workers: 2, Cache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ch := r.Stream(ctx, slowSpec())
	select {
	case pr, ok := <-ch:
		if ok && pr.Err != nil {
			t.Fatal(pr.Err)
		}
	case <-time.After(time.Minute):
		t.Fatal("no first cell within a minute")
	}
	cancel()

	start := time.Now()
	collect(t, ch, 30*time.Second)
	if waited := time.Since(start); waited > 15*time.Second {
		t.Errorf("channel took %v to close after cancel", waited)
	}

	// Every worker must unwind: poll until the goroutine count returns
	// to the pre-stream level (with a little slack for test runtime
	// helpers).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before stream, %d after cancel",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The cache must hold only complete cells: a rerun on it agrees with
	// a clean runner bit for bit and reports the salvaged cells as hits.
	resCached, err := (&Runner{Workers: 2, Cache: cache}).Run(context.Background(), slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := (&Runner{Workers: 2}).Run(context.Background(), slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, resCached, resClean)
	if resCached.CacheHits == 0 {
		t.Log("note: cancellation landed before any cell completed (no hits to salvage)")
	}
}

// TestStreamDeadlineClosesWithoutErrorElement pins the termination
// contract: a context that expires mid-sweep closes the channel without
// a terminal error element (the consumer's ctx is the signal), and no
// completed rows arrive after the deadline passes unnoticed.
func TestStreamDeadlineClosesWithoutErrorElement(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	got := collect(t, (&Runner{Workers: 2}).Stream(ctx, slowSpec()), 30*time.Second)
	for _, pr := range got {
		if pr.Err != nil {
			t.Errorf("ctx-derived termination leaked an error element: %v", pr.Err)
		}
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: deadline did not fire")
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Runner{}).Run(ctx, tinySpec())
	if err == nil {
		t.Fatal("Run succeeded on a cancelled context")
	}
}

// TestRunDeadlineReturnsCtxErr pins that a mid-sweep timeout surfaces as
// the context's own error, not as a scenario failure blaming whatever
// cell happened to be in flight.
func TestRunDeadlineReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := (&Runner{Workers: 2}).Run(ctx, slowSpec())
	if err != context.DeadlineExceeded {
		t.Fatalf("want bare context.DeadlineExceeded, got %v", err)
	}
}

func TestRunVariantsGrid(t *testing.T) {
	spec := Spec{
		Name:       "variants",
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4},
		Variants: []Variant{
			{Name: "paper", WithSim: true},
			{Name: "no-blocking", NoBlockingCorrection: true},
			{Name: "single-server", SingleServerGroups: true},
		},
		Loads:   LoadSpec{Fracs: []float64{0.3, 0.6}},
		WithSim: true,
		Budget:  Budget{Warmup: 300, Measure: 2000, Seed: 3},
	}
	res, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.Curves) != 3 {
		t.Fatalf("rows=%d curves=%d, want 6/3", len(res.Rows), len(res.Curves))
	}
	byVariant := map[string][]Row{}
	for _, row := range res.Rows {
		byVariant[row.Scenario.Variant.Name] = append(byVariant[row.Scenario.Variant.Name], row)
	}
	for li := 0; li < 2; li++ {
		paper := byVariant["paper"][li]
		noBlock := byVariant["no-blocking"][li]
		single := byVariant["single-server"][li]
		// Fractional loads anchor on the base model: every variant probes
		// the same absolute load.
		if paper.LoadFlits != noBlock.LoadFlits || paper.LoadFlits != single.LoadFlits {
			t.Errorf("load %d: variants probed different loads: %v %v %v",
				li, paper.LoadFlits, noBlock.LoadFlits, single.LoadFlits)
		}
		// Only the flagged variant carries the simulator reference.
		if math.IsNaN(paper.Sim) {
			t.Errorf("load %d: paper variant missing sim", li)
		}
		if !math.IsNaN(noBlock.Sim) || !math.IsNaN(single.Sim) {
			t.Errorf("load %d: model-only variants ran the simulator", li)
		}
		// The ablated models must degrade as the paper's A1/A2 predict.
		if !(noBlock.Model > paper.Model) || !(single.Model > paper.Model) {
			t.Errorf("load %d: ablation ordering violated: paper=%v noBlock=%v single=%v",
				li, paper.Model, noBlock.Model, single.Model)
		}
	}
}

func TestValidateVariantErrors(t *testing.T) {
	s := validSpec()
	s.Variants = []Variant{{NoBlockingCorrection: true}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("unnamed variant: %v", err)
	}
	s.Variants = []Variant{{Name: "a"}, {Name: "a", SingleServerGroups: true}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: %v", err)
	}
	s = validSpec()
	s.WithSim = false
	s.Budget = Budget{}
	s.Variants = []Variant{{Name: "a", WithSim: true}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "with_sim") {
		t.Errorf("variant sim without spec sim: %v", err)
	}
	// Identical option-sets under different names would silently collapse
	// at expansion (cache keys hash options, not names) — rejected.
	s = validSpec()
	s.Variants = []Variant{{Name: "a"}, {Name: "b"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "identical options") {
		t.Errorf("duplicate variant options: %v", err)
	}
	// The same options with and without the sim reference are distinct
	// cells and stay legal.
	s = validSpec()
	s.Variants = []Variant{{Name: "a", WithSim: true}, {Name: "b"}}
	if err := s.Validate(); err != nil {
		t.Errorf("sim/no-sim variant pair should validate: %v", err)
	}
}

func TestNewRunnerOptions(t *testing.T) {
	cache := NewCache()
	var events []Event
	r := NewRunner(
		WithWorkers(3),
		WithCache(cache),
		WithProgress(func(ev Event) { events = append(events, ev) }),
	)
	if r.Workers != 3 || r.Cache != cache || r.Progress == nil {
		t.Fatalf("options not applied: %+v", r)
	}
	if _, err := r.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Error("progress option not wired")
	}
	if cache.Len() == 0 {
		t.Error("cache option not wired")
	}
}

// constBackend is a custom Evaluator answering every scenario with a
// fixed latency; it proves the runner is backend-agnostic.
type constBackend struct{ latency float64 }

func (b constBackend) Name() string { return "const" }

func (b constBackend) Evaluate(ctx context.Context, sc Scenario) (eval.Point, error) {
	pt := eval.NewPoint()
	pt.LoadFlits = sc.Load.Value
	pt.Model = b.latency
	return pt, nil
}

func TestWithBackendsReplacesDefaults(t *testing.T) {
	spec := validSpec()
	spec.WithSim = false
	spec.Loads = LoadSpec{Flits: []float64{0.01, 0.02}}
	r := NewRunner(WithBackends(constBackend{latency: 42}))
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Model != 42 {
			t.Errorf("custom backend ignored: %+v", row.Cell)
		}
	}
	// Without an analytic backend there is no curve describer: curve
	// metadata degrades to NaN instead of failing.
	if len(res.Curves) != 1 || !math.IsNaN(res.Curves[0].SaturationLoad) {
		t.Errorf("curve metadata should degrade gracefully: %+v", res.Curves)
	}
	// ...and the NaNs must still serialise (as nulls, never raw NaN).
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("custom-backend result not marshalable: %v", err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Errorf("JSON leaked a NaN:\n%s", data)
	}
}

// TestCacheSaltsCustomBackends pins that a cache shared between runners
// with different backend lists never serves one backend's cells as
// another's.
func TestCacheSaltsCustomBackends(t *testing.T) {
	spec := validSpec()
	spec.WithSim = false
	spec.Loads = LoadSpec{Flits: []float64{0.01}}
	cache := NewCache()
	custom, err := NewRunner(WithCache(cache), WithBackends(constBackend{latency: 42})).
		Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if custom.Rows[0].Model != 42 {
		t.Fatalf("custom backend value: %v", custom.Rows[0].Model)
	}
	def, err := NewRunner(WithCache(cache)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if def.CacheHits != 0 {
		t.Errorf("default runner hit the custom backend's cache line (%d hits)", def.CacheHits)
	}
	if def.Rows[0].Model == 42 {
		t.Error("default runner returned the custom backend's latency")
	}
	// Same backend list again: now it may (must) hit.
	again, err := NewRunner(WithCache(cache), WithBackends(constBackend{latency: 42})).
		Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != 1 {
		t.Errorf("identical custom runner should hit its own cache line (%d hits)", again.CacheHits)
	}
}

// observerFunc adapts a function to CellObserver.
type observerFunc func(key string)

func (f observerFunc) ObserveCell(_ context.Context, key string, _ Cell) { f(key) }

// TestCustomListLineIsItsNamesThenTheKey pins the one salted form left:
// a custom list's cell sits in a shared cache under "backends=<names>|"
// followed by Scenario.Key — Run's and Evaluate's alike — while the
// observer, like everything else outside the cache view, is fed the key.
func TestCustomListLineIsItsNamesThenTheKey(t *testing.T) {
	spec := validSpec()
	spec.WithSim = false
	spec.Loads = LoadSpec{Flits: []float64{0.01}}
	cache := NewCache()
	var observed []string
	r := NewRunner(WithCache(cache), WithBackends(constBackend{latency: 42}, constBackend{latency: 7}))
	r.Calib = observerFunc(func(key string) { observed = append(observed, key) })
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	probe := res.Rows[0].Scenario
	probe.Load.Value = 0.02
	if _, _, err := r.Evaluate(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	const runLine = "backends=const,const|family=bft size=16 k=0 flits=4 policy=pairqueue frac=false load=0x1.47ae147ae147bp-07 sim=false"
	want := map[string]bool{runLine: true, "backends=const,const|" + probe.Key(): true}
	cache.Range(func(line string, _ Cell) bool {
		if !want[line] {
			t.Errorf("unexpected cache line %q", line)
		}
		delete(want, line)
		return true
	})
	for line := range want {
		t.Errorf("no cache line %q", line)
	}
	if len(observed) != 2 || observed[0] != res.Rows[0].Scenario.Key() || observed[1] != probe.Key() {
		t.Errorf("observer fed %q, want the two scenario keys", observed)
	}
}
