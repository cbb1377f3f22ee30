package obs

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/race"
)

// Disabled tracing must cost nothing: no allocations, no goroutines,
// same context back. Pinned like sim's TestSteadyStateAllocs so a
// regression that puts garbage on the untraced hot path fails CI.
func TestDisabledPathAllocFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := StartSpanKeyed(ctx, "eval.cell", "family=bft size=64")
		sp.SetAttr(Bool("cached", true))
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled StartSpan must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
	// Attribute values are boxed only when a recording span stores them:
	// a string, an int past the runtime's small-integer cache, an int64
	// and a float cost nothing on an untraced span or context.
	outcome := strings.Repeat("bounded", 1)
	allocs = testing.AllocsPerRun(1000, func() {
		c2, sp := StartSpanKeyed(ctx, "bounds.eval", "family=bft size=64")
		sp.SetAttr(String("outcome", outcome))
		sp.SetAttr(Int("cycles", 4096))
		Annotate(c2, Int64("probes", 1<<40), Float("bound", 1234.5), String("outcome", outcome))
		sp.End(String("outcome", outcome), Int("cycles", 4096), Int64("probes", 1<<40), Float("bound", 1234.5))
	})
	if allocs != 0 {
		t.Fatalf("disabled span attrs allocate %.1f/op, want 0", allocs)
	}
	h := http.Header{}
	allocs = testing.AllocsPerRun(1000, func() {
		Inject(ctx, h)
	})
	if allocs != 0 {
		t.Fatalf("disabled Inject allocates %.1f/op, want 0", allocs)
	}
}

// A recorded span carries every attr kind as its JSON value, with the
// NaN and infinity rules applied.
func TestAttrValuesRecorded(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	_, sp := StartSpan(WithTracer(context.Background(), tr), "attrs")
	sp.End(String("s", "x"), Int("i", 4096), Int64("i64", -1<<40), Bool("b", true), Bool("nb", false),
		Float("f", 1234.5), Float("nan", math.NaN()), Float("inf", math.Inf(1)), Float("ninf", math.Inf(-1)))
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"s": "x", "i": 4096.0, "i64": -float64(1 << 40), "b": true, "nb": false,
		"f": 1234.5, "nan": nil, "inf": "+Inf", "ninf": "-Inf"}
	got := events[0].Attrs
	if len(got) != len(want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("attr %s = %v, want %v", k, g, v)
		}
	}
}

// keyed is a struct-valued key holder shaped like eval.Scenario: big
// enough that boxing it would allocate, with a Key that allocates.
type keyed struct {
	family string
	size   [12]int
	built  *int
}

func (k keyed) Key() string {
	*k.built++
	return k.family + strings.Repeat("x", k.size[0])
}

// StartSpanFor must not build the key, nor box the keyed value, when
// tracing is off — and must produce StartSpanKeyed's span when it is on.
func TestDisabledSpanAllocs(t *testing.T) {
	built := 0
	k := keyed{family: "family=bft size=", size: [12]int{3}, built: &built}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := StartSpanFor(ctx, "bounds.eval", k)
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled StartSpanFor must return ctx unchanged")
		}
	})
	if allocs != 0 || built != 0 {
		t.Fatalf("disabled StartSpanFor: %.1f allocs/op, %d keys built; want 0 and 0", allocs, built)
	}

	var buf bytes.Buffer
	tr := NewTracer(&buf)
	on := WithTracer(context.Background(), tr)
	_, a := StartSpanFor(on, "bounds.eval", k)
	_, b := StartSpanKeyed(on, "bounds.eval", k.Key())
	if a.id == "" || a.id != b.id {
		t.Fatalf("StartSpanFor id %q, StartSpanKeyed id %q", a.id, b.id)
	}
}

// An enabled keyed span — start, one attribute, end, encoded to the
// tracer's writer — has an allocation budget. A wall-clock overhead
// gate cannot resolve the box's run-to-run drift: what a span costs in
// time is the ledger's obs.trace_overhead_pct; what it may allocate is
// pinned here.
func TestEnabledSpanAllocs(t *testing.T) {
	budget := 11.0 // today's figure; make allocs checks it exactly
	if race.Enabled {
		budget += 4 // reads 13 under the detector; exactness is make allocs' job
	}
	on := WithTracer(context.Background(), NewTracer(io.Discard))
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpanKeyed(on, "eval.cell", "family=bft size=64 k=0 flits=16 policy=pairqueue frac=true load=0x1p-01")
		sp.SetAttr(Bool("cached", false))
		sp.End()
	})
	if allocs > budget {
		t.Errorf("enabled keyed span allocates %.0f/op, budget %.0f", allocs, budget)
	}
}

// The tracer owns no goroutines: heavy concurrent span traffic must
// leave the goroutine count where it started.
func TestTracerGoroutineLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_, sp := StartSpan(ctx, "work")
				sp.End(Int("i", i), Int("j", j))
			}
		}(i)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 8*200 {
		t.Fatalf("got %d events, want %d", len(events), 8*200)
	}
}

// Keyed span IDs are a pure function of (trace, parent, name, key), so
// two identical runs produce identical IDs — the diffability contract.
func TestDeterministicKeyedIDs(t *testing.T) {
	run := func() []Event {
		var buf bytes.Buffer
		tr := NewTracer(&buf)
		ctx := WithTracer(context.Background(), tr)
		rctx, root := StartSpanKeyed(ctx, "sweep.run", "figure3")
		for _, key := range []string{"cell-a", "cell-b"} {
			_, sp := StartSpanKeyed(rctx, "eval.cell", key)
			sp.End(Bool("cached", false))
		}
		root.End(Int("cells", 2))
		events, err := ReadEvents(&buf)
		if err != nil {
			t.Fatalf("ReadEvents: %v", err)
		}
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 3 {
		t.Fatalf("got %d and %d events, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i].Span != b[i].Span || a[i].Trace != b[i].Trace || a[i].Parent != b[i].Parent {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Parent != a[2].Span || a[0].Trace != a[2].Span {
		t.Fatalf("cell span not parented on root: %+v root %+v", a[0], a[2])
	}
}

// Annotate writes to the span its context came from — not to a parent,
// not after End — and is free when tracing is off or the span is remote.
func TestAnnotate(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	rctx, root := StartSpanKeyed(WithTracer(context.Background(), tr), "sweep.run", "r")
	cctx, cell := StartSpanKeyed(rctx, "sim.run", "c")
	Annotate(cctx, Bool("engine_reused", true), Int("worms_high_water", 7))
	cell.End(Int("cycles", 100))
	Annotate(cctx, Int("late", 1))
	root.End()
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if a := events[0].Attrs; len(a) != 3 || a["engine_reused"] != true || a["worms_high_water"] != 7.0 || a["cycles"] != 100.0 {
		t.Errorf("annotated span attrs = %v", a)
	}
	if a := events[1].Attrs; len(a) != 0 {
		t.Errorf("parent span picked up attrs: %v", a)
	}

	remote := withRemote(context.Background(), tr, "t", "s")
	off := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		Annotate(remote, Bool("x", true))
		Annotate(off, Bool("x", true))
	}); n != 0 {
		t.Errorf("Annotate without a local span allocates %.1f/op, want 0", n)
	}
}

// Header propagation: a server extracting what a client injected must
// parent its spans inside the client's trace.
func TestHTTPPropagationStitches(t *testing.T) {
	var coord, shard bytes.Buffer
	ctr := NewTracer(&coord)
	cctx := WithTracer(context.Background(), ctr)
	cctx, root := StartSpanKeyed(cctx, "dispatch.sweep", "figure3")
	rangeCtx, rangeSpan := StartSpanKeyed(cctx, "dispatch.range", "shardA:0-4")

	h := http.Header{}
	Inject(rangeCtx, h)
	if h.Get(TraceHeader) == "" || h.Get(SpanHeader) == "" {
		t.Fatalf("Inject left headers empty: %v", h)
	}

	str := NewTracer(&shard)
	sctx := Extract(context.Background(), str, h)
	_, req := StartSpan(sctx, "serve:/v1/sweep/part")
	_, cell := StartSpanKeyed(sctx, "eval.cell", "cell-a")
	cell.End(Bool("cached", false))
	req.End(Int("status", 200))
	rangeSpan.End(String("shard", "shardA"))
	root.End()

	cev, err := ReadEvents(&coord)
	if err != nil {
		t.Fatalf("coord events: %v", err)
	}
	sev, err := ReadEvents(&shard)
	if err != nil {
		t.Fatalf("shard events: %v", err)
	}
	all := append(cev, sev...)
	f := BuildForest(all)
	if err := CheckForest(f); err != nil {
		t.Fatalf("stitched forest not well-formed: %v", err)
	}
	if len(f.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(f.Traces))
	}
	if len(f.Roots) != 1 || f.Roots[0].Event.Name != "dispatch.sweep" {
		t.Fatalf("unexpected roots: %+v", f.Roots)
	}
}

// End-before-parent and orphan detection.
func TestCheckForestOrphans(t *testing.T) {
	events := []Event{
		{Trace: "t1", Span: "a", Name: "root"},
		{Trace: "t1", Span: "b", Parent: "missing", Name: "child"},
	}
	f := BuildForest(events)
	if err := CheckForest(f); err == nil {
		t.Fatal("CheckForest accepted an orphan")
	}
}

func TestAnalyzeReport(t *testing.T) {
	events := []Event{
		{Trace: "t", Span: "r", Name: "sweep.run", DurUS: 1000},
		{Trace: "t", Span: "g1", Parent: "r", Name: "dispatch.range", DurUS: 700,
			Attrs: map[string]any{"shard": "s1", "cells": float64(3)}},
		{Trace: "t", Span: "g2", Parent: "r", Name: "dispatch.range", DurUS: 200,
			Attrs: map[string]any{"shard": "s2", "cells": float64(1)}},
		{Trace: "t", Span: "c1", Parent: "g1", Name: "eval.cell", DurUS: 600,
			Attrs: map[string]any{"cached": false}},
		{Trace: "t", Span: "c2", Parent: "g2", Name: "eval.cell", DurUS: 10,
			Attrs: map[string]any{"cached": true}},
	}
	r := Analyze(events)
	if r.Orphans != 0 || r.Traces != 1 || r.Spans != 5 {
		t.Fatalf("bad counts: %+v", r)
	}
	if r.CacheHits != 1 || r.CacheMisses != 1 {
		t.Fatalf("cache counts: hits=%d misses=%d", r.CacheHits, r.CacheMisses)
	}
	if len(r.Shards) != 2 || r.Shards[0].Addr != "s1" || r.Shards[0].Cells != 3 {
		t.Fatalf("shard stats: %+v", r.Shards)
	}
	want := []string{"sweep.run", "dispatch.range", "eval.cell"}
	if len(r.CritPath) != len(want) {
		t.Fatalf("critical path: %+v", r.CritPath)
	}
	for i, st := range r.CritPath {
		if st.Name != want[i] {
			t.Fatalf("critical path step %d = %s, want %s", i, st.Name, want[i])
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	out := buf.String()
	for _, needle := range []string{"cache:", "per-layer time:", "per-shard skew:", "critical path:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("formatted report missing %q:\n%s", needle, out)
		}
	}
}

func TestCountersRegistry(t *testing.T) {
	c := NewCounter("obs_test_events_total")
	if again := NewCounter("obs_test_events_total"); again != c {
		t.Fatal("NewCounter not idempotent")
	}
	c.Add(3)
	c.Add(4)
	if got := Counters()["obs_test_events_total"]; got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx 3\nhttp_req{path=\"/v1/eval\"} 2\n"
	m, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	if m["x"] != 3 || m[`http_req{path="/v1/eval"}`] != 2 {
		t.Fatalf("parsed: %v", m)
	}
	if _, err := ParseMetrics(strings.NewReader("bad line without value\n")); err == nil {
		t.Fatal("ParseMetrics accepted a malformed line")
	}
	if _, err := ParseMetrics(strings.NewReader("x 1\nx 2\n")); err == nil {
		t.Fatal("ParseMetrics accepted duplicate samples")
	}
}
