package sweep

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tinySpec is a simulation-backed grid small enough for unit tests.
func tinySpec() Spec {
	return Spec{
		Name:       "tiny",
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4, 8},
		Loads:      LoadSpec{Fracs: []float64{0.3, 0.6}},
		WithSim:    true,
		Budget:     Budget{Warmup: 300, Measure: 2000, Seed: 3},
	}
}

func mustRun(t *testing.T, r *Runner, s Spec) *Result {
	t.Helper()
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rowsEqual compares two runs point for point, exactly: seeds are
// schedule-independent, so any worker count must give bit-identical
// numbers.
func rowsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.LoadFlits != rb.LoadFlits || ra.Model != rb.Model ||
			!(ra.Sim == rb.Sim || (math.IsNaN(ra.Sim) && math.IsNaN(rb.Sim))) ||
			ra.SimSaturated != rb.SimSaturated {
			t.Errorf("row %d differs:\n  %+v\n  %+v", i, ra.Cell, rb.Cell)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	seq := mustRun(t, &Runner{Workers: 1}, tinySpec())
	par := mustRun(t, &Runner{Workers: 2}, tinySpec())
	rowsEqual(t, seq, par)
	for _, row := range seq.Rows {
		if math.IsNaN(row.Sim) {
			t.Errorf("row %d missing sim: %+v", row.Scenario.Index, row.Cell)
		}
		if e := row.RelErr(); math.IsNaN(e) || e > 0.4 {
			t.Errorf("row %d rel err %v implausible", row.Scenario.Index, e)
		}
	}
}

func TestRunCacheHits(t *testing.T) {
	r := &Runner{Workers: 2, Cache: NewCache()}
	first := mustRun(t, r, tinySpec())
	if first.CacheHits != 0 || first.CacheMisses != len(first.Rows) {
		t.Errorf("first run: hits=%d misses=%d", first.CacheHits, first.CacheMisses)
	}
	second := mustRun(t, r, tinySpec())
	if second.CacheHits != len(second.Rows) || second.CacheMisses != 0 {
		t.Errorf("rerun should be fully cached: hits=%d misses=%d",
			second.CacheHits, second.CacheMisses)
	}
	rowsEqual(t, first, second)
	for _, row := range second.Rows {
		if !row.Cached {
			t.Errorf("row %d not marked cached", row.Scenario.Index)
		}
	}

	// An overlapping (smaller) spec is served entirely from cache; a
	// widened spec computes only the new cells.
	sub := tinySpec()
	sub.MsgFlits = []int{8}
	subRes := mustRun(t, r, sub)
	if subRes.CacheHits != len(subRes.Rows) || subRes.CacheMisses != 0 {
		t.Errorf("overlapping spec should be fully cached: hits=%d misses=%d",
			subRes.CacheHits, subRes.CacheMisses)
	}
	wide := tinySpec()
	wide.MsgFlits = []int{4, 8, 16}
	wideRes := mustRun(t, r, wide)
	if wideRes.CacheHits != 4 || wideRes.CacheMisses != 2 {
		t.Errorf("widened spec: hits=%d misses=%d, want 4/2",
			wideRes.CacheHits, wideRes.CacheMisses)
	}
	if hits, misses := r.Cache.(*Cache).Stats(); hits != int64(second.CacheHits+subRes.CacheHits+wideRes.CacheHits) ||
		misses != int64(first.CacheMisses+wideRes.CacheMisses) {
		t.Errorf("cache stats hits=%d misses=%d inconsistent with runs", hits, misses)
	}
}

// TestWorkersCappedAtGridSize pins the pool bound: a spec cannot demand
// more goroutines than it has cells — specs can arrive from untrusted
// clients via the serving layer.
func TestWorkersCappedAtGridSize(t *testing.T) {
	r := &Runner{}
	if got := r.workers(Spec{Workers: 1 << 30}, 4); got != 4 {
		t.Errorf("workers(1<<30, 4) = %d, want 4", got)
	}
	if got := (&Runner{Workers: 1 << 30}).workers(Spec{}, 2); got != 2 {
		t.Errorf("runner-level workers(1<<30, 2) = %d, want 2", got)
	}
	spec := tinySpec()
	spec.WithSim = false
	spec.Workers = 1 << 30
	res := mustRun(t, &Runner{}, spec)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestRunModelOnly(t *testing.T) {
	s := Spec{
		Name: "model-only",
		Topologies: []TopologySpec{
			{Family: FamilyBFT, Sizes: []int{16}},
			{Family: FamilyHypercube, Sizes: []int{4}},
			{Family: FamilyTorus, Sizes: []int{3}, K: 4},
		},
		MsgFlits: []int{8},
		Loads:    LoadSpec{Points: 3, MaxFrac: 0.9},
	}
	res := mustRun(t, &Runner{}, s)
	if want := 3 * 3; len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(res.Curves))
	}
	for _, row := range res.Rows {
		if !math.IsNaN(row.Sim) {
			t.Errorf("model-only row has sim value %v", row.Sim)
		}
		if row.Model <= 0 && !row.ModelSaturated {
			t.Errorf("bad model latency: %+v", row.Cell)
		}
	}
	for _, c := range res.Curves {
		if math.IsNaN(c.SaturationLoad) || c.SaturationLoad <= 0 {
			t.Errorf("curve %s s=%d: saturation %v", c.Topology, c.MsgFlits, c.SaturationLoad)
		}
	}
}

func TestRunAbsoluteLoadsAndModelSaturation(t *testing.T) {
	// 10 flits/cycle/PE is far past saturation for any of these nets;
	// the model marks the point instead of failing the sweep.
	s := Spec{
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{8},
		Loads:      LoadSpec{Flits: []float64{0.01, 10}},
	}
	res := mustRun(t, &Runner{}, s)
	if res.Rows[0].ModelSaturated || math.IsInf(res.Rows[0].Model, 0) {
		t.Errorf("low load should be stable: %+v", res.Rows[0].Cell)
	}
	if !res.Rows[1].ModelSaturated || !math.IsInf(res.Rows[1].Model, 1) {
		t.Errorf("absurd load should saturate the model: %+v", res.Rows[1].Cell)
	}
	if res.Rows[0].LoadFlits != 0.01 {
		t.Errorf("absolute load mangled: %v", res.Rows[0].LoadFlits)
	}
}

func TestRunRejectsBadTopologySize(t *testing.T) {
	s := tinySpec()
	s.Topologies[0].Sizes = []int{5} // not a power of four
	_, err := (&Runner{}).Run(context.Background(), s)
	if want := "sweep: bft-5/s=4/pairqueue: analytic: fat-tree size 5 is not a power of four >= 4"; err == nil || err.Error() != want {
		t.Errorf("Run = %v, want %q", err, want)
	}
}

func TestRunProgressEvents(t *testing.T) {
	var events []Event
	r := &Runner{Workers: 2, Progress: func(ev Event) { events = append(events, ev) }}
	res := mustRun(t, r, tinySpec())
	if len(events) != len(res.Rows) {
		t.Fatalf("%d events for %d rows", len(events), len(res.Rows))
	}
	last := events[len(events)-1]
	if last.Done != last.Total || last.Total != len(res.Rows) {
		t.Errorf("final event %+v", last)
	}
}

func TestResultRenderings(t *testing.T) {
	r := &Runner{Workers: 2, Cache: NewCache()}
	mustRun(t, r, tinySpec())
	res := mustRun(t, r, tinySpec()) // cached run: exercises the cached column
	tbl := res.Table().String()
	for _, want := range []string{"bft-16", "pairqueue", "rel err", "yes"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	sum := res.Summary()
	for _, want := range []string{"tiny", "4 cached", "saturation"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name string `json:"name"`
		Rows []struct {
			Topology     string   `json:"topology"`
			ModelLatency *float64 `json:"model_latency"`
			SimLatency   *float64 `json:"sim_latency"`
			Seed         uint64   `json:"seed"`
			Cached       bool     `json:"cached"`
		} `json:"rows"`
		CacheHits int `json:"cache_hits"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("result JSON does not parse: %v\n%s", err, data)
	}
	if decoded.Name != "tiny" || decoded.CacheHits != 4 || len(decoded.Rows) != 4 {
		t.Errorf("JSON summary wrong: %+v", decoded)
	}
	for i, row := range decoded.Rows {
		if row.ModelLatency == nil || row.SimLatency == nil || !row.Cached {
			t.Errorf("JSON row %d incomplete: %+v", i, row)
		}
	}

	// Model-only JSON must encode missing sim values as null, not NaN.
	mo := mustRun(t, &Runner{}, Spec{
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{8},
		Loads:      LoadSpec{Flits: []float64{10}},
	})
	data, err = json.Marshal(mo)
	if err != nil {
		t.Fatalf("model-only result not marshalable: %v", err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Errorf("JSON leaked a NaN:\n%s", data)
	}
}

// TestCurvePoints: Result.ByCurve cuts the rows into one run per entry of
// Curves, on a grid whose policy, variant and workload axes all split
// curves, and every run is its curve's load points in load order.
func TestCurvePoints(t *testing.T) {
	res := mustRun(t, &Runner{}, Spec{
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4, 8},
		Policies:   []string{"pairqueue", "randomfixed"},
		Variants:   []Variant{{Name: "paper"}, {Name: "no-blocking", NoBlockingCorrection: true}},
		Workloads: []workload.Spec{
			{Name: "steady"},
			{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		},
		Loads: LoadSpec{Fracs: []float64{0.2, 0.5, 0.8}},
	})
	runs := res.ByCurve()
	if len(runs) != 2*2*2*2 || len(runs) != len(res.Curves) {
		t.Fatalf("%d runs for %d curves, want 16 of each", len(runs), len(res.Curves))
	}
	for i, rows := range runs {
		c := res.Curves[i]
		if len(rows) != 3 {
			t.Fatalf("curve %d has %d points, want 3", i, len(rows))
		}
		for j, row := range rows {
			sc := row.Scenario
			wl := ""
			if !sc.Workload.IsDefault() {
				wl = sc.Workload.Label()
			}
			if sc.Topology != c.Topology || sc.MsgFlits != c.MsgFlits || sc.Policy.String() != c.Policy ||
				sc.Variant.Name != c.Variant || wl != c.Workload {
				t.Errorf("curve %d (%+v) holds row %s", i, c, sc.CurveKey())
			}
			if sc.LoadIndex != j {
				t.Errorf("curve %d point %d has load index %d: out of load order", i, j, sc.LoadIndex)
			}
		}
	}
}
