package dispatch

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fleettest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// newFleet starts n sweep servers and returns their addresses plus the
// test servers (for mid-run kills).
func newFleet(t testing.TB, n int) ([]string, []*httptest.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(serve.New(serve.WithCache(sweep.NewCache())))
		t.Cleanup(srv.Close)
		srvs[i] = srv
		addrs[i] = srv.URL
	}
	return addrs, srvs
}

func newDispatcher(t testing.TB, addrs []string, opts ...Option) *Dispatcher {
	t.Helper()
	d, err := New(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// localFigure3 computes the in-process figure3 reference once per test
// binary; both parity tests diff against it.
var (
	figure3Once  sync.Once
	figure3Local *sweep.Result
	figure3Err   error
)

func localFigure3(t *testing.T) *sweep.Result {
	t.Helper()
	figure3Once.Do(func() {
		var spec sweep.Spec
		spec, figure3Err = sweep.Builtin("figure3")
		if figure3Err != nil {
			return
		}
		figure3Local, figure3Err = sweep.NewRunner().Run(context.Background(), spec)
	})
	if figure3Err != nil {
		t.Fatal(figure3Err)
	}
	return figure3Local
}

// diffRows asserts the dispatched rows match the in-process reference:
// models to 1e-9, simulator cells bit for bit.
func diffRows(t *testing.T, local, got []sweep.Row) {
	t.Helper()
	if len(got) != len(local) {
		t.Fatalf("row counts differ: dispatched %d, local %d", len(got), len(local))
	}
	for i := range local {
		lr, rr := local[i], got[i]
		if lr.Scenario.Key() != rr.Scenario.Key() {
			t.Errorf("row %d answers a different scenario: %s vs %s", i, rr.Scenario.CurveKey(), lr.Scenario.CurveKey())
		}
		if math.Abs(lr.Model-rr.Model) > 1e-9 {
			t.Errorf("row %d: model drifted through the dispatcher: %v vs %v", i, lr.Model, rr.Model)
		}
		if math.Float64bits(lr.Sim) != math.Float64bits(rr.Sim) ||
			math.Float64bits(lr.SimCI) != math.Float64bits(rr.SimCI) {
			t.Errorf("row %d: sim not bit-identical: %v±%v vs %v±%v", i, lr.Sim, lr.SimCI, rr.Sim, rr.SimCI)
		}
		if math.Float64bits(lr.LoadFlits) != math.Float64bits(rr.LoadFlits) ||
			lr.ModelSaturated != rr.ModelSaturated || lr.SimSaturated != rr.SimSaturated {
			t.Errorf("row %d: cell metadata drifted:\n  local      %+v\n  dispatched %+v", i, lr.Cell, rr.Cell)
		}
	}
}

// TestDispatchedFigure3MatchesInProcess is the subsystem's central pin:
// the paper's Figure 3 grid scheduled across a 3-shard fleet matches the
// in-process run — models to 1e-9, simulator cells bit for bit, curve
// metadata included.
func TestDispatchedFigure3MatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure3 grid in -short mode")
	}
	local := localFigure3(t)
	addrs, _ := newFleet(t, 3)
	d := newDispatcher(t, addrs, WithCache(sweep.NewCache()))

	spec, err := sweep.Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	diffRows(t, local.Rows, res.Rows)
	if len(res.Curves) != len(local.Curves) {
		t.Fatalf("curve counts differ: dispatched %d, local %d", len(res.Curves), len(local.Curves))
	}
	for i := range local.Curves {
		lc, rc := local.Curves[i], res.Curves[i]
		if lc.Model != rc.Model || math.Float64bits(lc.SaturationLoad) != math.Float64bits(rc.SaturationLoad) ||
			math.Float64bits(lc.AvgDist) != math.Float64bits(rc.AvgDist) {
			t.Errorf("curve %d drifted: %+v vs %+v", i, lc, rc)
		}
	}
	if st := d.Stats(); st.Cells != int64(len(res.Rows)) || st.Batches == 0 {
		t.Errorf("stats do not account for the sweep: %+v", st)
	}
}

// modelOnlySpec is a cheap grid needing no simulator.
func modelOnlySpec() sweep.Spec {
	return sweep.Spec{
		Name:       "model-only",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
		MsgFlits:   []int{4, 8},
		Loads:      sweep.LoadSpec{Flits: []float64{0.005, 0.01, 0.02}},
	}
}

// TestRangeDispatchAmortisesRequests is why the range protocol exists,
// as a count instead of a stopwatch: a cold grid of N >= 120 cells over
// 3 shards costs the dispatcher at most 4 range requests per shard and
// one curve request, where the fleet client's per-cell Evaluate pays one
// /v1/eval round trip per cell. (The ledger's throughput for it is
// fs.cells_per_s and dispatch.ranges_per_run against eval.remote_rtt_us.)
func TestRangeDispatchAmortisesRequests(t *testing.T) {
	fl := fleettest.New(t, fleettest.Schedule{Shards: 3})
	spec := modelOnlySpec()
	spec.Loads = sweep.LoadSpec{Points: 40, MaxFrac: 0.9}

	d := faultDispatcher(t, fl)
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Rows)
	if n < 120 {
		t.Fatalf("grid has %d cells, want >= 120", n)
	}
	parts := fl.Count("", -1, "sweep/part")
	if st := d.Stats(); st.Batches > 4*3 || st.Batches != int64(parts) || st.Cells != int64(n) {
		t.Errorf("%d cold cells took %d range request(s) (%d seen by shards, %d cells back), want <= %d",
			n, st.Batches, parts, st.Cells, 4*3)
	}
	if evals, curves := fl.Count("", -1, "eval"), fl.Count("", -1, "curve"); evals != 0 || curves != 1 {
		t.Errorf("dispatcher issued %d per-cell and %d curve request(s), want 0 and 1", evals, curves)
	}

	rb, err := eval.NewRemoteBackend(fl.Addrs(), eval.WithTransport(fl))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if _, err := rb.Evaluate(context.Background(), row.Scenario); err != nil {
			t.Fatal(err)
		}
	}
	if evals, curves := fl.Count("", -1, "eval"), fl.Count("", -1, "curve"); evals != n || curves != 1 {
		t.Errorf("per-cell transport issued %d /v1/eval request(s) for %d cells and %d curve request(s), want none", evals, n, curves-1)
	}
}

// streamErr drains a dispatched stream and returns its terminal error
// (nil when the sweep completed).
func streamErr(t *testing.T, d *Dispatcher, spec sweep.Spec) error {
	t.Helper()
	var last error
	for pr := range d.Stream(context.Background(), spec) {
		last = pr.Err
	}
	return last
}

// TestAllShardsDeadFailsTheSweep: with every shard ejected and cells
// outstanding, the sweep reports a terminal error instead of hanging.
// (Run would already fail in curve resolution; Stream exercises the
// scheduler's own all-dead detection.)
func TestAllShardsDeadFailsTheSweep(t *testing.T) {
	d := newDispatcher(t, []string{"127.0.0.1:1"},
		WithShardBackoff(time.Millisecond), WithMaxShardFailures(2))
	err := streamErr(t, d, modelOnlySpec())
	if err == nil || !strings.Contains(err.Error(), "ejected") {
		t.Fatalf("want an all-shards-ejected error, got %v", err)
	}
	if st := d.Stats(); st.EjectedShards != 1 || st.ShardFailures < 2 {
		t.Errorf("stats do not reflect the dead fleet: %+v", st)
	}
}

// TestScenarioErrorFailsTheSweep: a per-cell verdict from a shard (an
// unbuildable topology) is permanent — no amount of stealing retries it.
func TestScenarioErrorFailsTheSweep(t *testing.T) {
	addrs, _ := newFleet(t, 2)
	d := newDispatcher(t, addrs, WithShardBackoff(time.Millisecond))
	spec := modelOnlySpec()
	spec.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
	err := streamErr(t, d, spec)
	if err == nil || !strings.Contains(err.Error(), "scenario") {
		t.Fatalf("want a scenario-level failure, got %v", err)
	}
}

// coldGrid is a grid of n rows, cold (Cached false) at the indices cold
// and served elsewhere.
func coldGrid(n int, cold []int) *sweep.Grid {
	g := &sweep.Grid{Rows: make([]sweep.Row, n)}
	for i := range g.Rows {
		g.Rows[i].Cached = true
	}
	for _, i := range cold {
		g.Rows[i].Cached = false
	}
	return g
}

func TestPartition(t *testing.T) {
	cases := []struct {
		cold []int
		size int
		want []span
	}{
		{nil, 4, nil},
		{[]int{0, 1, 2, 3, 4, 5}, 3, []span{{0, 3}, {3, 6}}},
		{[]int{0, 1, 2, 3, 4}, 2, []span{{0, 2}, {2, 4}, {4, 5}}},
		{[]int{0, 2, 3, 7}, 4, []span{{0, 1}, {2, 4}, {7, 8}}}, // cache holes split runs
		{[]int{5}, 1, []span{{5, 6}}},
	}
	for _, c := range cases {
		got := partition(coldGrid(8, c.cold), c.size)
		if len(got) != len(c.want) {
			t.Errorf("partition(%v, %d) = %v, want %v", c.cold, c.size, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("partition(%v, %d) = %v, want %v", c.cold, c.size, got, c.want)
				break
			}
		}
	}
	for _, sp := range partition(coldGrid(7, []int{0, 1, 2, 3, 4, 5, 6}), 3) {
		if sp.end-sp.start > 3 {
			t.Errorf("span %v exceeds the size bound", sp)
		}
	}
}

func TestRemainder(t *testing.T) {
	sp := span{10, 16}
	got := []bool{false, true, true, false, false, true} // 11, 12 and 15
	rest := remainder(sp, got)
	want := []span{{10, 11}, {13, 15}}
	if len(rest) != len(want) {
		t.Fatalf("remainder = %v, want %v", rest, want)
	}
	for i := range rest {
		if rest[i] != want[i] {
			t.Fatalf("remainder = %v, want %v", rest, want)
		}
	}
	if r := remainder(span{0, 3}, []bool{true, true, true}); len(r) != 0 {
		t.Errorf("fully delivered span has remainder %v", r)
	}
	if r := remainder(span{0, 2}, []bool{false, false}); len(r) != 1 || r[0] != (span{0, 2}) {
		t.Errorf("untouched span remainder = %v", r)
	}
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New([]string{" ", ""}); err == nil {
		t.Error("empty address list accepted")
	}
}

// TestDispatcherEvaluate covers the dispatcher's single-cell engine
// surface (the capacity planner's operating points): off-grid scenarios
// answer through the fleet and share the dispatched sweeps' cache
// lines.
func TestDispatcherEvaluate(t *testing.T) {
	addrs, _ := newFleet(t, 2)
	cache := sweep.NewCache()
	d, err := New(addrs, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:       "fleet-engine",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
	}
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("fleet run returned %d rows", len(res.Rows))
	}
	// An off-grid probe — an operating point's shape — is a cache miss,
	// computed remotely and written back.
	sc := res.Rows[0].Scenario
	sc.Load = sweep.Load{Value: res.Rows[0].LoadFlits * 1.01}
	pt, cached, err := d.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("fresh probe reported cached")
	}
	if math.IsNaN(pt.Model) && !pt.ModelSaturated {
		t.Errorf("probe returned no model value: %+v", pt)
	}
	if _, cached, _ := d.Evaluate(context.Background(), sc); !cached {
		t.Error("repeated probe missed the shared cache")
	}
	// A grid cell evaluated per-cell hits the line the dispatched
	// sweep already warmed: the two paths share one salt.
	if _, cached, _ := d.Evaluate(context.Background(), res.Rows[1].Scenario); !cached {
		t.Error("dispatched sweep's cell missed the cache via Evaluate")
	}
}

// TestWithTransportCoversEveryPath pins that a caller-supplied transport
// carries all of the dispatcher's traffic — per-cell Evaluate and curve
// resolution as well as the range streams — so a custom RoundTripper
// (auth, proxy, TLS) is never bypassed: the fleet's shards answer only
// through it.
func TestWithTransportCoversEveryPath(t *testing.T) {
	fl := fleettest.New(t, fleettest.Schedule{Shards: 1})
	d := faultDispatcher(t, fl)
	spec := modelOnlySpec()
	scens, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Evaluate(context.Background(), scens[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"eval", "curve", "sweep/part"} {
		if fl.Count("", 0, route) == 0 {
			t.Errorf("no /v1/%s request went through the WithTransport RoundTripper", route)
		}
	}
}

// TestCrossShardTraceStitching pins the fleet-wide tracing contract: a
// dispatched sweep traced at the coordinator, with every shard writing
// its own trace file, must reassemble into one well-formed tree after
// the files are concatenated — every shard-side span parented into the
// coordinator's dispatch.range spans through the propagated headers —
// even when a shard is killed mid-sweep and its ranges fail over.
func TestCrossShardTraceStitching(t *testing.T) {
	const shards = 2
	shardBufs := make([]*bytes.Buffer, shards)
	shardTracers := make([]*obs.Tracer, shards)
	srvs := make([]*httptest.Server, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		shardBufs[i] = &bytes.Buffer{}
		shardTracers[i] = obs.NewTracer(shardBufs[i])
		srv := httptest.NewServer(serve.New(
			serve.WithCache(sweep.NewCache()),
			serve.WithTracer(shardTracers[i])))
		t.Cleanup(srv.Close)
		srvs[i] = srv
		addrs[i] = srv.URL
	}
	d := newDispatcher(t, addrs,
		WithBatch(2),
		WithCache(sweep.NewCache()),
		WithShardBackoff(5*time.Millisecond),
		WithMaxShardFailures(2),
	)

	var coordBuf bytes.Buffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&coordBuf))
	rows, killed := 0, false
	for pr := range d.Stream(ctx, modelOnlySpec()) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		rows++
		if !killed && rows == 2 {
			killed = true
			srvs[1].CloseClientConnections()
			srvs[1].Close()
		}
	}
	if rows != 12 {
		t.Fatalf("sweep delivered %d rows, want 12", rows)
	}
	// Quiesce the survivor before reading its trace buffer: handlers
	// may still be ending their request spans after the client has the
	// last byte.
	srvs[0].Close()

	var all []obs.Event
	sources := append([]*bytes.Buffer{&coordBuf}, shardBufs...)
	for i, buf := range sources {
		evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trace source %d: %v", i, err)
		}
		all = append(all, evs...)
	}
	f := obs.BuildForest(all)
	if err := obs.CheckForest(f); err != nil {
		t.Fatalf("concatenated fleet trace is not well-formed: %v", err)
	}
	if len(f.Traces) != 1 {
		t.Fatalf("expected one stitched trace, got %d", len(f.Traces))
	}
	names := make(map[string]int)
	for _, ev := range all {
		names[ev.Name]++
	}
	// The engine roots the trace; the fleet scheduler's span sits under it.
	if root := f.Roots[0]; root.Event.Name != "sweep.run" {
		t.Errorf("root span is %q, want sweep.run", root.Event.Name)
	}
	if names["dispatch.sweep"] == 0 {
		t.Error("no dispatch.sweep span under the engine's root")
	}
	if names["dispatch.range"] == 0 {
		t.Error("no dispatch.range spans in the coordinator trace")
	}
	if names["serve:/v1/sweep/part"] == 0 {
		t.Error("no shard-side request spans made it into the trace")
	}
	if names["eval.cell"] == 0 {
		t.Error("no shard-side eval.cell spans made it into the trace")
	}
}
