package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analytic"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/workload"
)

// builtinKeyDigests pins Scenario.Key() bytes over every builtin grid:
// cell count and sha256 of the newline-joined keys, recorded at the
// commit before keys were assembled in one buffer. Persistent stores and
// calibration maps are addressed by these bytes.
var builtinKeyDigests = map[string]struct {
	cells  int
	sha256 string
}{
	"bursty":        {8, "7b7010f45e459187e06e867ee9909546dc7745d2f7fb398cf60e02a2f5901db4"},
	"families":      {216, "0e6cff622ea364186de65dfca66ff0acea4a476f7cd44c7c6be95cfa7fba0eb5"},
	"figure3":       {30, "dd6262bebad3fa120cdecfb298ec9e362e2624d87e3d4f9f56245e9c4572b213"},
	"figure3-small": {8, "69aebb3a2b72591af0c78f2c7315b51c51b986bd4648e97bc9583235f32e7a2f"},
	"hotspot":       {6, "dc0c6b745a384554ae90c9f66647a90968a0d0a57646d256d1fe0ee06c2d3e37"},
	"policies":      {8, "67bf05b47f7d3a31ab9efe55f9dba3d105defe7a82399dfb729fc06b0cc8460f"},
	"table2":        {27, "4d8b1ea1beaa662ed381f852abde88c0d76fb98cfee7d61f159b7dedb940869b"},
}

// expandKeys expands spec and joins every cell's key from its curve's key
// and its token, as a key leaving the process is built.
func expandKeys(t testing.TB, spec Spec) (*Grid, []string) {
	t.Helper()
	g, err := ExpandGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(g.Rows))
	for _, c := range g.Curves {
		for i := c.Start; i < c.End; i++ {
			keys[i] = string(eval.AppendJoinKey(nil, c.Key, g.Rows[i].Scenario.Token()))
		}
	}
	return g, keys
}

// TestExpandKeyedMatchesKey: over every builtin spec, the keys joined
// from ExpandGrid's curve keys and the cells' tokens are each scenario's
// own Key(), the curves partition the cells in order, each under the
// curve key its cells write, Expand returns the same scenarios, and the
// key bytes are the pinned ones.
func TestExpandKeyedMatchesKey(t *testing.T) {
	names := Builtins()
	if len(names) != len(builtinKeyDigests) {
		t.Errorf("%d builtins, %d pinned digests: pin the new spec's keys", len(names), len(builtinKeyDigests))
	}
	for _, name := range names {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		g, keys := expandKeys(t, spec)
		scens := scenarios(g)
		plain, err := Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, scens) {
			t.Fatalf("%s: Expand and ExpandGrid disagree (%d vs %d scenarios)", name, len(plain), len(scens))
		}
		next := 0
		for _, c := range g.Curves {
			if c.Start != next || c.End <= c.Start {
				t.Fatalf("%s: curve [%d, %d) after cell %d", name, c.Start, c.End, next)
			}
			for i := c.Start; i < c.End; i++ {
				if own := string(scens[i].AppendCurveKey(nil, scens[i].Workload.Canonical())); own != c.Key {
					t.Fatalf("%s cell %d: curve key %q, its curve's %q", name, i, own, c.Key)
				}
			}
			next = c.End
		}
		if next != len(scens) {
			t.Fatalf("%s: curves end at cell %d of %d", name, next, len(scens))
		}
		h := sha256.New()
		for i, sc := range scens {
			if keys[i] != sc.Key() {
				t.Fatalf("%s cell %d: key %q, Key() %q", name, i, keys[i], sc.Key())
			}
			h.Write([]byte(keys[i]))
			h.Write([]byte{'\n'})
		}
		want := builtinKeyDigests[name]
		if got := fmt.Sprintf("%x", h.Sum(nil)); len(scens) != want.cells || got != want.sha256 {
			t.Errorf("%s: %d cells, key digest %s; pinned %d cells, %s", name, len(scens), got, want.cells, want.sha256)
		}
	}
}

// modelGrid is a model-only fat-tree grid over the four ablation
// variants, shaped like the bench's model-sweep workload.
func modelGrid() Spec {
	return Spec{
		Name:       "model-grid",
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16, 64, 256, 1024}}},
		MsgFlits:   []int{8, 16, 32},
		Variants: []Variant{
			{Name: "paper"},
			{Name: "no-blocking", NoBlockingCorrection: true},
			{Name: "single-server", SingleServerGroups: true},
			{Name: "pre-erratum", NoPairRateCorrection: true},
		},
		Loads: LoadSpec{Points: 32, MaxFrac: 0.98},
	}
}

// TestModelGridAllocBudget: a cold then a warm Run of a model grid on
// one fresh runner with a cache — keys, expansion, curve set-up, model
// builds, Eq. 26 searches, pool, cache and result all included — stays
// within 1 allocation and 450 bytes per cell. (It was 27 allocations when
// every layer rebuilt its keys and every λ₀ its channel graph, and 1.8
// while every cell's key was its own allocation and every model's class
// names and labels theirs; 816 bytes while every cell had a key, a dedup
// entry and a cache map entry of its own, where a curve now has them;
// about 580 while a Run copied every scenario from the grid into its rows
// and held its cold cells in a slab, where a cell now lands in its row.)
func TestModelGridAllocBudget(t *testing.T) {
	spec := modelGrid()
	ctx := context.Background()
	cells := 0
	pass := func() {
		r := NewRunner(WithCache(NewCache()), WithWorkers(2))
		cold, err := r.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := r.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits != len(warm.Rows) || cold.CacheHits != 0 {
			t.Fatalf("cold run hit %d, warm run hit %d of %d", cold.CacheHits, warm.CacheHits, len(warm.Rows))
		}
		cells = len(cold.Rows) + len(warm.Rows)
	}
	pass()
	perCell := testing.AllocsPerRun(5, pass) / float64(cells)
	const passes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytesPerCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*cells)
	t.Logf("%.2f allocs/cell, %.0f B/cell over %d cells", perCell, bytesPerCell, cells)
	budget, bytesBudget := 1.0, 450.0
	if race.Enabled {
		// sync.Pool drops Puts under the detector, whose instrumentation
		// allocates besides.
		budget, bytesBudget = 12, math.Inf(1)
	}
	if perCell > budget {
		t.Errorf("cold+warm model grid: %.2f allocs/cell, budget %v", perCell, budget)
	}
	if bytesPerCell > bytesBudget {
		t.Errorf("cold+warm model grid: %.0f B/cell, budget %v", bytesPerCell, bytesBudget)
	}
}

// benchModelGrid is the bench's model-sweep grid: 2,560 cells.
func benchModelGrid() Spec {
	spec := modelGrid()
	spec.Topologies[0].Sizes = []int{16, 64, 256, 1024, 4096}
	spec.MsgFlits = []int{8, 16, 32, 64}
	return spec
}

// TestModelGridNetworkAllocs: a model-only Run of the bench's model grid
// — 5 sizes × 4 message lengths × 4 variants, 80 curves — takes every
// curve's model as a view of one network per size, which the process
// builds once: the first Run builds at most 5 (none that an earlier test
// built), and a second fresh Runner builds none.
func TestModelGridNetworkAllocs(t *testing.T) {
	spec := benchModelGrid()
	spec.Loads.Points = 4
	for i, most := range []int64{5, 0} {
		before := obs.Counters()["analytic_models_built_total"]
		res, err := NewRunner().Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Curves); got != 80 {
			t.Fatalf("the grid has %d curves, want 80", got)
		}
		if got := obs.Counters()["analytic_models_built_total"] - before; got > most {
			t.Errorf("Runner %d: a Run over 80 curves on 5 fat-trees built %d models, want at most %d", i+1, got, most)
		}
	}
}

// TestGeneralGridNetworkAllocs: the bench's general-sweep grid — model
// and bounds over 3 fat-trees, 3 hypercubes and 2 tori, 512 cells. Once a
// first Run has built its networks, a fresh Runner's cold Run builds none
// and stays within its allocation budget, yet runs every Eq. 26 search
// again: the process shares networks, not results.
func TestGeneralGridNetworkAllocs(t *testing.T) {
	spec := Spec{
		Name: "bench-general",
		Topologies: []TopologySpec{
			{Family: FamilyBFT, Sizes: []int{64, 256, 1024}},
			{Family: FamilyHypercube, Sizes: []int{6, 8, 10}},
			{Family: FamilyTorus, Sizes: []int{3, 4}, K: 4},
		},
		MsgFlits: []int{16, 32},
		Backends: []string{BackendModel, BackendBounds},
		Loads:    LoadSpec{Points: 32, MaxFrac: 0.95},
	}
	ctx := context.Background()
	var cells int
	run := func() (searches int64) {
		s0 := analytic.SaturationSearches()
		res, err := NewRunner().Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		cells = len(res.Rows)
		return analytic.SaturationSearches() - s0
	}
	first := run()
	built := obs.Counters()["analytic_models_built_total"]
	if again := run(); again != first || first == 0 {
		t.Errorf("a fresh Runner ran %d saturation searches, the first %d", again, first)
	}
	perCell := testing.AllocsPerRun(5, func() { run() }) / float64(cells)
	if got := obs.Counters()["analytic_models_built_total"] - built; got != 0 {
		t.Errorf("fresh Runners over built networks built %d models, want 0", got)
	}
	t.Logf("%.3f allocs/cell over %d cells", perCell, cells)
	budget := 0.2
	if race.Enabled {
		budget = 12
	}
	if perCell > budget {
		t.Errorf("a fresh Runner's cold Run of the general grid: %.3f allocs/cell, budget %v", perCell, budget)
	}
}

// TestExpandKeyedAllocs: a grid keys its curves, not its cells, and cuts
// the curve keys from keyChunk-sized chunks, so expanding 2,560
// cells on 80 curves allocates ⌈curve-key bytes / keyChunk⌉ chunks (one
// more where the last chunk's estimate falls short) plus a constant for
// the grid — the scenario and curve slices, the curve dedup map, the axes
// — whatever the number of loads per curve.
func TestExpandKeyedAllocs(t *testing.T) {
	for _, points := range []int{32, 128} {
		spec := benchModelGrid()
		spec.Loads.Points = points
		g, err := ExpandGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		bytes := 0
		for _, c := range g.Curves {
			bytes += len(c.Key)
		}
		chunks := (bytes + keyChunk - 1) / keyChunk
		got := testing.AllocsPerRun(10, func() {
			if _, err := ExpandGrid(spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d cells on %d curves, %d curve-key bytes, %d chunks: %v allocations", len(g.Rows), len(g.Curves), bytes, chunks, got)
		if len(g.Curves) != 80 || len(g.Rows) != 80*points {
			t.Fatalf("%d cells on %d curves, want %d on 80", len(g.Rows), len(g.Curves), 80*points)
		}
		if budget := float64(chunks + 1 + 16); got > budget {
			t.Errorf("expanding %d curves allocates %v times, budget %v (%d chunks + 1 + 16)", len(g.Curves), got, budget, chunks)
		}
	}
}

// TestExpandKeyedChunkBoundaries: curve keys cut from chunks are the
// curve keys a curve's cells write, and join into the keys Scenario.Key
// writes, wherever a chunk ends — keys that straddle a chunk's end open
// the next one, a key longer than a chunk gets one of its own — and a
// duplicate curve whose first appearance lies in an earlier chunk is
// still dropped.
func TestExpandKeyedChunkBoundaries(t *testing.T) {
	check := func(name string, spec Spec) ([]Scenario, []string) {
		t.Helper()
		g, keys := expandKeys(t, spec)
		seen := map[string]bool{}
		for i, sc := range scenarios(g) {
			if want := sc.Key(); keys[i] != want {
				t.Fatalf("%s cell %d: key %q, want %q", name, i, keys[i], want)
			}
			if seen[keys[i]] {
				t.Fatalf("%s cell %d: duplicate key %q survived", name, i, keys[i])
			}
			seen[keys[i]] = true
		}
		bytes := 0
		for _, c := range g.Curves {
			if own := string(g.Rows[c.Start].Scenario.AppendCurveKey(nil, g.Rows[c.Start].Scenario.Workload.Canonical())); own != c.Key {
				t.Fatalf("%s: curve key %q, its first cell's %q", name, c.Key, own)
			}
			bytes += len(c.Key)
		}
		if bytes < 3*keyChunk {
			t.Fatalf("%s: %d curve-key bytes cross too few chunk ends to test", name, bytes)
		}
		return scenarios(g), keys
	}

	// Straddling: curve keys of varying length (sizes and message lengths
	// of one to four digits) run through many chunks.
	grid := modelGrid()
	grid.MsgFlits = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	grid.Loads = LoadSpec{Points: 3, MaxFrac: 0.9}
	check("model grid", grid)

	// A duplicated size repeats every curve of the first, long after the
	// chunks holding them are full.
	dup := grid
	dup.Topologies = []TopologySpec{{Family: FamilyBFT, Sizes: append(slices.Clone(grid.Topologies[0].Sizes), grid.Topologies[0].Sizes[0])}}
	scens, keys := check("duplicated size", dup)
	_, want := expandKeys(t, grid)
	if !reflect.DeepEqual(keys, want) || len(scens) != len(want) {
		t.Errorf("duplicated size: %d cells, want the %d of the grid without it", len(keys), len(want))
	}

	// A trace path longer than a chunk, between two default workloads'
	// worth of short keys.
	long := grid
	long.Topologies = []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}}
	long.Workloads = []workload.Spec{{}, {Name: "replay", Trace: strings.Repeat("t", keyChunk+100) + ".ndjson"}, {Pattern: workload.PatternTranspose}}
	_, keys = check("long trace", long)
	longest := 0
	for _, k := range keys {
		longest = max(longest, len(k))
	}
	if longest <= keyChunk {
		t.Errorf("longest key %d bytes, want one longer than a %d-byte chunk", longest, keyChunk)
	}
}

// TestTraceKeyCannotForgeBoundsBit: the key grammar separates fields by
// spaces, so a trace path ending in " bounds=true" would give a plain
// cell the key of the shorter path's bounds-carrying cell — the cache
// would serve one for the other and ParseKey would read back the wrong
// scenario. Validate refuses whitespace and control characters in a
// trace path, at every door a workload comes in by.
func TestTraceKeyCannotForgeBoundsBit(t *testing.T) {
	base := Scenario{Topology: Topology{Family: FamilyBFT, Size: 16}, MsgFlits: 16, Load: Load{Value: 0.1}}
	for _, path := range []string{"t.ndjson bounds=true", "t.ndjson\tbounds=true", "a b.ndjson", "t.ndjson\n", "t\u00a0.ndjson", "t\x00.ndjson"} {
		forged := workload.Spec{Trace: path}
		if err := forged.Validate(); err == nil {
			t.Errorf("workload.Spec.Validate accepts trace path %q", path)
		}
		spec := modelGrid()
		spec.Workloads = []workload.Spec{forged}
		if err := spec.Validate(); err == nil {
			t.Errorf("sweep Spec.Validate accepts trace path %q", path)
		}
		wire, err := json.Marshal(Scenario{Topology: base.Topology, MsgFlits: 16, Load: base.Load, Workload: &forged})
		if err != nil {
			t.Fatal(err)
		}
		var sc Scenario
		if err := json.Unmarshal(wire, &sc); err == nil {
			t.Errorf("a wire scenario with trace path %q decodes", path)
		}
	}
	// The collision the rule prevents.
	plain, bounded := base, base
	plain.Workload = &workload.Spec{Trace: "t.ndjson bounds=true"}
	bounded.Workload, bounded.WithBounds = &workload.Spec{Trace: "t.ndjson"}, true
	if plain.Key() != bounded.Key() {
		t.Fatalf("keys %q and %q differ: the grammar changed, revisit this test", plain.Key(), bounded.Key())
	}
}

// TestOptOutAllocs: the built-in stack is one list for every cell, so a
// model-only cell is offered to the simulator and the bound calculus too;
// both decline it with the empty point and allocate nothing.
func TestOptOutAllocs(t *testing.T) {
	scens, err := Expand(modelGrid())
	if err != nil {
		t.Fatal(err)
	}
	sc, ctx := scens[0], context.Background()
	stack := NewRunner().backends()
	if len(stack) != 3 || stack[1].Name() != "sim" || stack[2].Name() != "bounds" {
		t.Fatalf("built-in stack is %d backends, want analytic, sim, bounds", len(stack))
	}
	for _, be := range stack[1:] {
		var pt eval.Point
		got := testing.AllocsPerRun(200, func() { pt, err = be.Evaluate(ctx, sc) })
		if err != nil || !math.IsNaN(pt.LoadFlits) || !math.IsNaN(pt.Sim) || !math.IsNaN(pt.BoundMax) || pt.BoundNA {
			t.Fatalf("%s answered a cell that did not opt in: %+v, %v", be.Name(), pt, err)
		}
		if got != 0 {
			t.Errorf("%s declines a model-only cell with %v allocations, want 0", be.Name(), got)
		}
	}
}

// countingDescriber counts Curve calls on top of a real describer.
type countingDescriber struct {
	eval.Evaluator
	desc  CurveDescriber
	calls chan struct{}
}

func (c countingDescriber) Curve(ctx context.Context, sc eval.Scenario) (eval.CurveDesc, error) {
	c.calls <- struct{}{}
	return c.desc.Curve(ctx, sc)
}

// torusCurves is a model-only grid of many torus curves, each needing an
// Eq. 26 search through the cyclic core graph.
func torusCurves() Spec {
	return Spec{
		Name:       "torus-curves",
		Topologies: []TopologySpec{{Family: FamilyTorus, Sizes: []int{2, 3}, K: 4}, {Family: FamilyHypercube, Sizes: []int{3, 5}}},
		MsgFlits:   []int{8, 16, 32},
		Variants:   []Variant{{Name: "paper"}, {Name: "no-blocking", NoBlockingCorrection: true}},
		Loads:      LoadSpec{Fracs: []float64{0.2, 0.8}},
	}
}

// TestCurvesCancelledBeforeAnySearch: a sweep whose ctx has already
// ended returns ctx's error without describing a single curve — no
// saturation search runs on a dead sweep's behalf.
func TestCurvesCancelledBeforeAnySearch(t *testing.T) {
	ab := eval.NewAnalyticBackend()
	calls := make(chan struct{}, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := analytic.SaturationSearches()
	r := NewRunner(WithBackends(countingDescriber{Evaluator: ab, desc: ab, calls: calls}))
	if _, err := r.Run(ctx, torusCurves()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a cancelled ctx = %v, want context.Canceled", err)
	}
	for range r.Stream(ctx, torusCurves()) {
	}
	if n := len(calls); n != 0 {
		t.Errorf("%d curves described on a cancelled ctx, want 0", n)
	}
	if got := analytic.SaturationSearches() - before; got != 0 {
		t.Errorf("%d saturation searches ran on a cancelled ctx, want 0", got)
	}
}

// TestCurvesParallelEqualsSerial: curve metadata resolved on several
// workers is the serial result, in first-appearance order.
func TestCurvesParallelEqualsSerial(t *testing.T) {
	g, err := ExpandGrid(torusCurves())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewRunner(WithWorkers(1)).Curves(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 24 {
		t.Fatalf("%d curves, want 24", len(serial))
	}
	for _, workers := range []int{2, 4, 64} {
		parallel, err := NewRunner(WithWorkers(workers)).Curves(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel, serial) {
			t.Errorf("%d workers resolve\n%+v\nserial resolves\n%+v", workers, parallel, serial)
		}
	}
	res := mustRun(t, NewRunner(WithWorkers(4)), torusCurves())
	if len(res.Curves) != len(serial) {
		t.Fatalf("Run resolves %d curves, serial %d", len(res.Curves), len(serial))
	}
	for i, c := range res.Curves {
		if got := (eval.CurveDesc{Model: c.Model, AvgDist: c.AvgDist, SaturationLoad: c.SaturationLoad}); got != serial[i] {
			t.Errorf("Run resolves curve %d as %+v, serial as %+v", i, got, serial[i])
		}
		if i > 0 {
			if prev := res.Curves[i-1]; c.Topology == prev.Topology && c.MsgFlits == prev.MsgFlits && c.Variant == prev.Variant {
				t.Fatalf("curve %d repeated: %+v", i, c)
			}
		}
	}
}

// TestCurvesSpan: a traced sweep attributes curve resolution to a
// sweep.curves child of sweep.run carrying the curve and search counts.
func TestCurvesSpan(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	ctx := obs.WithTracer(context.Background(), tr)
	mustRunCtx := func() {
		if _, err := NewRunner().Run(ctx, torusCurves()); err != nil {
			t.Fatal(err)
		}
	}
	mustRunCtx()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var run, curves *obs.Event
	for i := range events {
		switch events[i].Name {
		case "sweep.run":
			run = &events[i]
		case "sweep.curves":
			curves = &events[i]
		}
	}
	if run == nil || curves == nil {
		t.Fatalf("spans: sweep.run %v, sweep.curves %v", run != nil, curves != nil)
	}
	if curves.Parent != run.Span {
		t.Errorf("sweep.curves parent %q, want sweep.run %q", curves.Parent, run.Span)
	}
	// 24 curves over 12 (instance, message length) anchors.
	if curves.Attrs["curves"] != 24.0 || curves.Attrs["saturation_searches"] != 12.0 {
		t.Errorf("sweep.curves attrs = %v, want curves 24, saturation_searches 12", curves.Attrs)
	}
}

// TestCurveCallsPerEntryPoint: curve metadata is Run's. Run describes
// each curve once; Stream, which has nowhere to put the answer, describes
// none — over a fleet, the grid's /v1/curve round trip is not made.
func TestCurveCallsPerEntryPoint(t *testing.T) {
	ab := eval.NewAnalyticBackend()
	calls := make(chan struct{}, 64)
	r := NewRunner(WithBackends(countingDescriber{Evaluator: ab, desc: ab, calls: calls}))
	res := mustRun(t, r, torusCurves())
	if n := len(calls); n != len(res.Curves) || n != 24 {
		t.Errorf("Run made %d Curve call(s) for %d curve(s), want 24 each", n, len(res.Curves))
	}
	for len(calls) > 0 {
		<-calls
	}
	rows := 0
	for pr := range r.Stream(context.Background(), torusCurves()) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		rows++
	}
	if rows != len(res.Rows) {
		t.Errorf("Stream delivered %d row(s), want %d", rows, len(res.Rows))
	}
	if n := len(calls); n != 0 {
		t.Errorf("Stream made %d Curve call(s), want 0", n)
	}
}

// panicBackend panics on scenarios of one message length and answers the
// rest like the analytic model.
type panicBackend struct {
	eval.Evaluator
	flits int
}

func (b panicBackend) Evaluate(ctx context.Context, sc Scenario) (eval.Point, error) {
	if sc.MsgFlits == b.flits {
		panic("boom")
	}
	return b.Evaluator.Evaluate(ctx, sc)
}

// curvePanic answers curves a cell at a time through the analytic model
// and panics on the fifth load of every curve.
type curvePanic struct{ *eval.AnalyticBackend }

func (b curvePanic) EvaluateCurve(ctx context.Context, cells eval.Cells) (int, error) {
	for j := 0; j < cells.Len(); j++ {
		sc, pt := cells.Cell(j)
		if sc.LoadIndex == 4 {
			panic("boom")
		}
		q, err := b.AnalyticBackend.Evaluate(ctx, *sc)
		if err != nil {
			return j, err
		}
		*pt = pt.Merge(q)
	}
	return cells.Len(), nil
}

// oneCurve is a model-only grid of one 32-load curve.
func oneCurve() Spec {
	spec := modelGrid()
	spec.Topologies[0].Sizes = []int{16}
	spec.MsgFlits, spec.Variants = []int{16}, nil
	return spec
}

// TestBackendPanicFailsTheCell: a backend that panics costs its cell, not
// the process. Run fails naming the scenario and the cell's key; Evaluate
// returns the error; the runner goes on answering other cells. A backend
// that answers a curve in one call and panics mid-curve fails exactly the
// cell it was answering: Run names that cell, and EvaluateList answers
// every other cell of the curve.
func TestBackendPanicFailsTheCell(t *testing.T) {
	t.Run("mid-curve", func(t *testing.T) {
		spec := oneCurve()
		g, err := ExpandGrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		key := g.Rows[4].Scenario.Key()
		r := NewRunner(WithWorkers(2), WithBackends(curvePanic{eval.NewAnalyticBackend()}))
		_, err = r.Run(context.Background(), spec)
		if want := "sweep: scenario 4 (" + g.Rows[4].Scenario.CurveKey() + ", load "; err == nil || !strings.HasPrefix(err.Error(), want) ||
			!strings.HasSuffix(err.Error(), "): backend panic on cell "+key+": boom") {
			t.Errorf("Run = %v, want the fifth cell's backend panic", err)
		}
		var answered, failed atomic.Int32
		r.EvaluateList(context.Background(), g, 0, len(g.Rows), func(i int, cell Cell, err error) {
			switch {
			case err != nil && i == 4 && err.Error() == "backend panic on cell "+key+": boom":
				failed.Add(1)
			case err == nil && i != 4 && !math.IsNaN(cell.Model):
				answered.Add(1)
			default:
				t.Errorf("cell %d: %+v, %v", i, cell, err)
			}
		})
		if answered.Load() != 31 || failed.Load() != 1 {
			t.Errorf("EvaluateList answered %d cells and failed %d, want 31 and the fifth", answered.Load(), failed.Load())
		}
	})

	spec := validSpec()
	spec.WithSim = false
	spec.MsgFlits = []int{8, 13}
	spec.Loads = LoadSpec{Flits: []float64{0.01}}
	scens, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithWorkers(1), WithBackends(panicBackend{Evaluator: eval.NewAnalyticBackend(), flits: 13}))
	_, err = r.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("Run succeeded over a panicking backend")
	}
	for _, want := range []string{"sweep: scenario 1 (", "backend panic", scens[1].Key(), "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %q does not mention %q", err, want)
		}
	}
	if _, _, err := r.Evaluate(context.Background(), scens[1]); err == nil || !strings.Contains(err.Error(), "backend panic") {
		t.Errorf("Evaluate over the panicking cell = %v, want a backend-panic error", err)
	}
	if cell, _, err := r.Evaluate(context.Background(), scens[0]); err != nil || math.IsNaN(cell.Model) {
		t.Errorf("the runner stopped answering after a panic: %+v, %v", cell, err)
	}
}
