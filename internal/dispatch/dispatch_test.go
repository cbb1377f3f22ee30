package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
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

// TestDispatchedFigure3SurvivesShardKill pins the failover guarantee: a
// shard killed mid-sweep (its in-flight connections torn down, its port
// then refusing) costs nothing but requeues — the merged result is still
// identical to the in-process run.
func TestDispatchedFigure3SurvivesShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure3 grid in -short mode")
	}
	local := localFigure3(t)
	addrs, srvs := newFleet(t, 3)
	d := newDispatcher(t, addrs,
		WithBatch(2),
		WithCache(sweep.NewCache()),
		WithShardBackoff(5*time.Millisecond),
		WithMaxShardFailures(2),
	)

	spec, err := sweep.Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	// The stream arrives in completion order; each row takes its grid
	// position, so a lost cell shows up in diffRows and a doubled one in
	// the count.
	rows := make([]sweep.Row, len(local.Rows))
	delivered := 0
	for pr := range d.Stream(context.Background(), spec) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		rows[pr.Row.Scenario.Index] = pr.Row
		if delivered++; delivered == 3 {
			srvs[2].CloseClientConnections()
			srvs[2].Close()
		}
	}
	if delivered != len(local.Rows) {
		t.Errorf("the stream delivered %d row(s) for %d cells", delivered, len(local.Rows))
	}
	diffRows(t, local.Rows, rows)
	st := d.Stats()
	if st.ShardFailures == 0 || st.EjectedShards != 1 {
		t.Errorf("the killed shard left no trace in the stats: %+v", st)
	}
	if st.Requeues == 0 {
		t.Errorf("no range was requeued after the kill: %+v", st)
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
// one curve request, where the per-cell RemoteBackend pays one /v1/eval
// round trip per cell (and, describing no curve, leaves curve context to
// the dispatcher). (The throughput this buys is the ledger's
// eval.batch_cells_per_s against eval.remote_rtt_us.)
func TestRangeDispatchAmortisesRequests(t *testing.T) {
	var evals, parts, curves atomic.Int64
	addrs := make([]string, 3)
	for i := range addrs {
		shard := serve.New(serve.WithCache(sweep.NewCache()))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/eval":
				evals.Add(1)
			case "/v1/sweep/part":
				parts.Add(1)
			case "/v1/curve":
				curves.Add(1)
			}
			shard.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	spec := modelOnlySpec()
	spec.Loads = sweep.LoadSpec{Points: 40, MaxFrac: 0.9}

	d := newDispatcher(t, addrs)
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(res.Rows))
	if n < 120 {
		t.Fatalf("grid has %d cells, want >= 120", n)
	}
	if st := d.Stats(); st.Batches > 4*3 || st.Batches != parts.Load() || st.Cells != n {
		t.Errorf("%d cold cells took %d range request(s) (%d seen by shards, %d cells back), want <= %d",
			n, st.Batches, parts.Load(), st.Cells, 4*3)
	}
	if evals.Load() != 0 || curves.Load() != 1 {
		t.Errorf("dispatcher issued %d per-cell and %d curve request(s), want 0 and 1", evals.Load(), curves.Load())
	}

	rb, err := eval.NewRemoteBackend(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.NewRunner(sweep.WithBackends(rb)).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if evals.Load() != n || curves.Load() != 1 {
		t.Errorf("per-cell transport issued %d /v1/eval request(s) for %d cells and %d curve request(s), want none", evals.Load(), n, curves.Load()-1)
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

// tornShard answers /v1/sweep/part with one valid cell and then a torn
// NDJSON line, whatever the requested range; every other path answers
// 503 so clients fail over to the healthy shard.
func tornShard(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep/part" {
			http.Error(w, "torn shard", http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Start int `json:"start"`
			End   int `json:"end"`
		}
		// A deliberately hostile shard: it answers the first cell of the
		// range with garbage-free JSON, then tears the line mid-float.
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, "{\"index\":%d,\"point\":{\"load_flits\":0.005,\"model\":1", req.Start)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestTornStreamStolenByHealthyShard: a shard that tears its NDJSON
// stream mid-line loses its range to the healthy shard; the sweep
// completes with correct cells.
func TestTornStreamStolenByHealthyShard(t *testing.T) {
	healthyAddrs, _ := newFleet(t, 1)
	torn := tornShard(t)
	d := newDispatcher(t, []string{torn.URL, healthyAddrs[0]},
		WithBatch(4), WithShardBackoff(time.Millisecond), WithMaxShardFailures(1))
	res, err := d.Run(context.Background(), modelOnlySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if math.IsNaN(row.Model) || row.Model <= 0 {
			t.Errorf("row %d carries no model value: %+v", i, row.Cell)
		}
	}
	if st := d.Stats(); st.Requeues == 0 {
		t.Errorf("the torn stream was never requeued: %+v", st)
	}
}

// heartbeatShard answers /v1/sweep/part with keepalive lines woven
// between dummy cells, covering whatever range is requested.
func heartbeatShard(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep/part" {
			http.Error(w, "heartbeat shard", http.StatusServiceUnavailable)
			return
		}
		var req struct {
			Start int `json:"start"`
			End   int `json:"end"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := req.Start; i < req.End; i++ {
			enc.Encode(eval.BatchItem{Index: -1}) // heartbeat before every cell
			pt := eval.NewPoint()
			pt.LoadFlits, pt.Model = 0.005, float64(i+1)
			enc.Encode(eval.BatchItem{Index: i, Point: &pt})
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDispatcherSkipsHeartbeats: keepalive lines in a part stream are
// transparent — every cell still arrives, nothing is requeued.
func TestDispatcherSkipsHeartbeats(t *testing.T) {
	shard := heartbeatShard(t)
	d := newDispatcher(t, []string{shard.URL}, WithShardBackoff(time.Millisecond))
	got := 0
	for pr := range d.Stream(context.Background(), modelOnlySpec()) {
		if pr.Err != nil {
			t.Fatalf("heartbeats broke the sweep: %v", pr.Err)
		}
		if pr.Row.Model != float64(pr.Row.Scenario.Index+1) {
			t.Errorf("cell %d mangled around heartbeats: %+v", pr.Row.Scenario.Index, pr.Row.Cell)
		}
		got++
	}
	if got != 12 {
		t.Fatalf("streamed %d rows, want 12", got)
	}
	if st := d.Stats(); st.Requeues != 0 || st.ShardFailures != 0 {
		t.Errorf("heartbeats counted as failures: %+v", st)
	}
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
		got := partition(c.cold, c.size)
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
	for _, sp := range partition([]int{0, 1, 2, 3, 4, 5, 6}, 3) {
		if sp.end-sp.start > 3 {
			t.Errorf("span %v exceeds the size bound", sp)
		}
	}
}

func TestRemainder(t *testing.T) {
	sp := span{10, 16}
	got := map[int]bool{11: true, 12: true, 15: true}
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
	if r := remainder(span{0, 3}, map[int]bool{0: true, 1: true, 2: true}); len(r) != 0 {
		t.Errorf("fully delivered span has remainder %v", r)
	}
	if r := remainder(span{0, 2}, nil); len(r) != 1 || r[0] != (span{0, 2}) {
		t.Errorf("untouched span remainder = %v", r)
	}
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New([]string{" ", ""}); err == nil {
		t.Error("empty address list accepted")
	}
}

// TestDispatcherEvaluate covers the dispatcher's single-cell engine
// surface (the capacity planner's probe path): off-grid scenarios
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
	// An off-grid probe — the planner's bisection shape — is a cache
	// miss, computed remotely and written back.
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

// TestPlanSurvivesShardKill is the planner's failover pin, on the one
// path a fleet is coordinated: plan.New over a dispatcher, in the
// process that asks, with one of its two shards killed after the first
// update. The dispatcher steals the dead shard's ranges and the probe
// client rotates away from it; the frontier must equal the in-process
// search's byte for byte.
func TestPlanSurvivesShardKill(t *testing.T) {
	spec := plan.Spec{
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
	frontierJSON := func(res *plan.Result) string {
		t.Helper()
		data, err := json.Marshal(res.Frontier)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	local, err := plan.NewLocal(nil).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	addrs, srvs := newFleet(t, 2)
	d := newDispatcher(t, addrs, WithShardBackoff(5*time.Millisecond))
	var res *plan.Result
	killed := false
	for u := range plan.New(d).Stream(context.Background(), spec) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if !killed {
			killed = true
			srvs[1].CloseClientConnections()
			srvs[1].Close()
		}
		if u.Phase == plan.PhaseDone {
			res = u.Result
		}
	}
	if !killed || res == nil {
		t.Fatalf("the search ended without updates or a result (killed %v)", killed)
	}
	if len(local.Frontier) == 0 {
		t.Fatal("the in-process search found no frontier to compare against")
	}
	if got, want := frontierJSON(res), frontierJSON(local); got != want {
		t.Errorf("frontier changed after a mid-search shard kill:\nfleet: %s\nlocal: %s", got, want)
	}
}

// countingTransport records the URL path of every request it carries.
type countingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.paths[req.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestWithHTTPClientCoversEveryPath pins that a caller-supplied client
// carries all of the dispatcher's traffic — per-cell Evaluate and curve
// resolution as well as the range streams — so a custom transport
// (auth, proxy, TLS) is never bypassed.
func TestWithHTTPClientCoversEveryPath(t *testing.T) {
	addrs, _ := newFleet(t, 1)
	ct := &countingTransport{paths: map[string]int{}}
	d := newDispatcher(t, addrs, WithHTTPClient(&http.Client{Transport: ct}))
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
	for _, path := range []string{"/v1/eval", "/v1/curve", "/v1/sweep/part"} {
		if ct.paths[path] == 0 {
			t.Errorf("no %s request went through the WithHTTPClient transport (saw %v)", path, ct.paths)
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

// partRange decodes the index range of a /v1/sweep/part request body.
func partRange(r *http.Request) (start, end int) {
	var req eval.PartRequest
	json.NewDecoder(r.Body).Decode(&req)
	return req.Start, req.End
}

// TestDispatcherHonoursRetryAfter: a shard that answers a range with 429
// and a Retry-After sits out the server's hint, not just the
// dispatcher's own (here 1ms) backoff; the healthy shard steals the
// requeued range meanwhile and the sweep completes equal to in-process.
func TestDispatcherHonoursRetryAfter(t *testing.T) {
	spec := modelOnlySpec()
	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	real := serve.New(serve.WithCache(sweep.NewCache()))
	var mu sync.Mutex
	var contacts []time.Time // range requests reaching the busy shard
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep/part" {
			mu.Lock()
			contacts = append(contacts, time.Now())
			first := len(contacts) == 1
			mu.Unlock()
			if first {
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"busy, come back later"}`)
				return
			}
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(busy.Close)
	// The healthy shard takes long enough per range that a busy shard
	// ignoring the hint would be back for more well inside it.
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep/part" {
			time.Sleep(20 * time.Millisecond)
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)

	d := newDispatcher(t, []string{busy.URL, healthy.URL}, WithBatch(1), WithShardBackoff(time.Millisecond))
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	diffRows(t, local.Rows, res.Rows)
	mu.Lock()
	defer mu.Unlock()
	if len(contacts) == 0 {
		t.Fatal("the busy shard was never offered a range")
	}
	for _, c := range contacts[1:] {
		if gap := c.Sub(contacts[0]); gap < 900*time.Millisecond {
			t.Errorf("busy shard contacted again %v after its 429, inside the 1s Retry-After", gap)
		}
	}
	if st := d.Stats(); st.ShardFailures != 1 || st.Requeues != 1 {
		t.Errorf("one 429 should cost one failure and one requeue: %+v", st)
	}
}

// headersSent wraps a ResponseWriter whose status line is already on the
// wire, so a handler chained behind a preamble can still stream its body.
type headersSent struct{ http.ResponseWriter }

func (headersSent) WriteHeader(int) {}
func (h headersSent) Flush()        { h.ResponseWriter.(http.Flusher).Flush() }

// TestStalledStreamIsStolen pins the idle watchdog under both consumers
// of the transport's stream reader. One shard sends headers and one cell
// and then hangs with the connection open; the other is alive but slow —
// it heartbeats for longer than the idle bound before answering. Only
// the watchdog's cancel gets a caller off the first shard, and only its
// per-line reset keeps the second one from being cut off too.
func TestStalledStreamIsStolen(t *testing.T) {
	const idle = 200 * time.Millisecond
	spec := modelOnlySpec()
	scens, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	isStream := func(path string) bool { return path == "/v1/batch" || path == "/v1/sweep/part" }

	type fleet struct {
		addrs                 []string
		mu                    sync.Mutex
		stallHits, slowHits   int
		slowCells             int // cells the slow shard was asked for over /v1/sweep/part
		stalledStart, stalled int // the stalled range, once one was taken
	}
	newFleet := func(t *testing.T) *fleet {
		f := &fleet{}
		release := make(chan struct{})
		stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !isStream(r.URL.Path) {
				http.Error(w, "stalling shard", http.StatusServiceUnavailable)
				return
			}
			idx := 0
			f.mu.Lock()
			f.stallHits++
			if r.URL.Path == "/v1/sweep/part" {
				start, end := partRange(r)
				idx, f.stalledStart, f.stalled = start, start, end-start
			}
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			json.NewEncoder(w).Encode(eval.BatchItem{Index: idx, Point: &local.Rows[idx].Cell})
			w.(http.Flusher).Flush()
			select { // accepted, one cell delivered, then silence
			case <-r.Context().Done():
			case <-release:
			}
		}))
		real := serve.New(serve.WithCache(sweep.NewCache()))
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !isStream(r.URL.Path) {
				real.ServeHTTP(w, r)
				return
			}
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			f.mu.Lock()
			f.slowHits++
			if r.URL.Path == "/v1/sweep/part" {
				var req eval.PartRequest
				json.Unmarshal(body, &req)
				f.slowCells += req.End - req.Start
			}
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			for lead := time.Now(); time.Since(lead) < 5*idle/2; time.Sleep(idle / 4) {
				json.NewEncoder(w).Encode(eval.BatchItem{Index: -1})
				w.(http.Flusher).Flush()
			}
			real.ServeHTTP(headersSent{w}, r)
		}))
		t.Cleanup(func() {
			close(release)
			stall.Close()
			slow.Close()
		})
		f.addrs = []string{stall.URL, slow.URL}
		return f
	}

	consumers := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, f *fleet)
	}{
		{"EvaluateBatch", func(t *testing.T, ctx context.Context, f *fleet) {
			b, err := eval.NewBatchBackend(f.addrs, eval.WithIdleTimeout(idle), eval.WithRetry(4, time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			pts, err := b.EvaluateBatch(ctx, scens)
			if err != nil {
				t.Fatalf("batch did not recover from the stalled shard: %v", err)
			}
			if len(pts) != len(scens) {
				t.Fatalf("%d of %d cells", len(pts), len(scens))
			}
			for i, pt := range pts {
				if math.Abs(pt.Model-local.Rows[i].Model) > 1e-9 {
					t.Errorf("cell %d: model %v, want %v", i, pt.Model, local.Rows[i].Model)
				}
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.stallHits != 1 || f.slowHits != 1 {
				t.Errorf("want one stalled attempt then one full answer, saw %d and %d request(s)", f.stallHits, f.slowHits)
			}
		}},
		{"Dispatcher", func(t *testing.T, ctx context.Context, f *fleet) {
			withIdle := func(d *Dispatcher) { d.ropts = append(d.ropts, eval.WithIdleTimeout(idle)) }
			d := newDispatcher(t, f.addrs, withIdle, WithBatch(6),
				WithShardBackoff(time.Millisecond), WithMaxShardFailures(1))
			rows := make([]sweep.Row, len(local.Rows))
			for pr := range d.Stream(ctx, spec) {
				if pr.Err != nil {
					t.Fatalf("sweep did not recover from the stalled shard: %v", pr.Err)
				}
				rows[pr.Row.Scenario.Index] = pr.Row
			}
			diffRows(t, local.Rows, rows)
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.stalled == 0 {
				t.Fatal("the stalling shard was never offered a range")
			}
			// The stalled range's one delivered cell is kept; exactly its
			// remainder, plus the ranges nobody stalled on, goes to the
			// slow shard.
			if want := len(scens) - 1; f.slowCells != want {
				t.Errorf("slow shard was asked for %d cell(s), want %d (everything but cell %d)", f.slowCells, want, f.stalledStart)
			}
			if st := d.Stats(); st.ShardFailures != 1 || st.Requeues != 1 || st.EjectedShards != 1 || st.Cells != int64(len(scens)) {
				t.Errorf("want one failure, one requeued remainder, one ejection: %+v", st)
			}
		}},
	}
	for _, c := range consumers {
		t.Run(c.name, func(t *testing.T) {
			// A lost watchdog hangs the consumer; the deadline turns that
			// into a failure instead of a stuck test binary.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c.run(t, ctx, newFleet(t))
		})
	}
}
