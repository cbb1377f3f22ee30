package eval_test

// These tests drive the fleet transport against internal/fleettest's
// in-process shards. The fault cases run named schedules — the seeds of
// internal/dispatch's FuzzFleet property — with the expectations the
// property's invariants leave to them; the rest run a clean fleet. Every
// answer is checked against the in-process runner's.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fleettest"
	"repro/internal/sweep"
)

const evalRoute, partRoute = "eval", "sweep/part"

// scenario is a bft-64 cell at fraction v of saturation.
func scenario(v float64) eval.Scenario {
	return eval.Scenario{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 64},
		MsgFlits: 8,
		Load:     eval.Load{Frac: true, Value: v},
	}
}

// scenarios are n distinct cells, fractions in (0, 1).
func scenarios(n, offset int) []eval.Scenario {
	scs := make([]eval.Scenario, n)
	for i := range scs {
		scs[i] = scenario(float64(offset+i+1) / float64(offset+n+1))
	}
	return scs
}

// expectLocal fails t unless got are the cells the in-process runner
// computes for scs.
func expectLocal(t *testing.T, scs []eval.Scenario, got []eval.Point) {
	t.Helper()
	r := sweep.NewRunner()
	want := make([]eval.Point, len(scs))
	for i, sc := range scs {
		var err error
		if want[i], _, err = r.Evaluate(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		t.Errorf("remote cells differ from the in-process ones:\n got  %s\n want %s", g, w)
	}
}

// remote builds a fleet for s and a client over it: the harness's idle
// bound, 1 ms backoffs, then opts.
func remote(t *testing.T, s fleettest.Schedule, opts ...eval.RemoteOption) (*fleettest.Fleet, *eval.RemoteBackend) {
	t.Helper()
	fl := fleettest.New(t, s)
	rb, err := eval.NewRemoteBackend(fl.Addrs(), append([]eval.RemoteOption{eval.WithTransport(fl),
		eval.WithIdleTimeout(fleettest.IdleBound), eval.WithRetry(0, time.Millisecond)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return fl, rb
}

func named(name string) fleettest.Schedule { return fleettest.Decode(fleettest.Named(name)) }

func clean(shards int) fleettest.Schedule { return fleettest.Schedule{Shards: shards} }

// evaluate sends sc through rb and checks the answer.
func evaluate(t *testing.T, ctx context.Context, rb *eval.RemoteBackend, sc eval.Scenario) {
	t.Helper()
	pt, err := rb.Evaluate(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	expectLocal(t, []eval.Scenario{sc}, []eval.Point{pt})
}

// batch sends scs through rb's EvaluateBatch and checks the answers.
func batch(t *testing.T, rb *eval.RemoteBackend, scs []eval.Scenario) {
	t.Helper()
	pts, err := rb.EvaluateBatch(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	expectLocal(t, scs, pts)
}

// expectCounts fails t unless shard i received want[i] requests on route.
func expectCounts(t *testing.T, fl *fleettest.Fleet, route string, want ...int) {
	t.Helper()
	got := make([]int, len(want))
	for i := range want {
		got[i] = fl.Count("", i, route)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s requests per shard: %v, want %v", route, got, want)
	}
}

func TestRemoteBackendEvaluate(t *testing.T) {
	fl, rb := remote(t, clean(1))
	evaluate(t, context.Background(), rb, scenario(0.5))
	expectCounts(t, fl, evalRoute, 1)
}

func TestRemoteBackendRoundRobinSharding(t *testing.T) {
	fl, rb := remote(t, clean(2))
	for i := 0; i < 6; i++ {
		evaluate(t, context.Background(), rb, scenario(0.5))
	}
	expectCounts(t, fl, evalRoute, 3, 3)
}

// TestRemoteBackendRetriesTransientFailures: two 500s in a row on the
// only shard cost two of its three attempts.
func TestRemoteBackendRetriesTransientFailures(t *testing.T) {
	fl, rb := remote(t, named("remote-retry"), eval.WithRetry(3, time.Millisecond))
	evaluate(t, context.Background(), rb, scenario(0.5))
	expectCounts(t, fl, evalRoute, 3)
}

// TestRemoteBackendPermanentErrorNotRetried: a shard's verdict on a
// scenario (422: bft-5 is no fat-tree) is final.
func TestRemoteBackendPermanentErrorNotRetried(t *testing.T) {
	fl, rb := remote(t, clean(1), eval.WithRetry(5, time.Millisecond))
	sc := scenario(0.5)
	sc.Topology.Size = 5
	_, err := rb.Evaluate(context.Background(), sc)
	if _, transient := eval.Transient(err); err == nil || transient || !strings.Contains(err.Error(), "422") {
		t.Fatalf("want the shard's permanent 422, got %v", err)
	}
	expectCounts(t, fl, evalRoute, 1)
}

func TestRemoteBackendFailsOverToHealthyShard(t *testing.T) {
	fl, rb := remote(t, named("remote-failover"))
	evaluate(t, context.Background(), rb, scenario(0.5))
	expectCounts(t, fl, evalRoute, 1, 1, 1)
}

// TestRemoteBackend429IsRetried: a rate-limited shard is retried, and a
// Retry-After of zero means an immediate next attempt.
func TestRemoteBackend429IsRetried(t *testing.T) {
	fl, rb := remote(t, named("remote-429"))
	evaluate(t, context.Background(), rb, scenario(0.5))
	expectCounts(t, fl, evalRoute, 2)
}

// TestRemoteBackendHonoursRetryAfter: the server's Retry-After stretches
// the backoff beyond the exponential schedule.
func TestRemoteBackendHonoursRetryAfter(t *testing.T) {
	fl, rb := remote(t, named("remote-retry-after"))
	evaluate(t, context.Background(), rb, scenario(0.5))
	if gap, ok := fl.Gap("", 0, evalRoute); !ok || gap < 900*time.Millisecond {
		t.Errorf("retried after %v, want >= the shard's 1 s Retry-After", gap)
	}
}

// TestRetryAfterHoldsOnlyItsShard: one shard's Retry-After holds off
// only the attempts that go back to it. A fresh client asks shard 0
// first; shards 0 and 1 ask for an hour, and the retry reaches shard 2
// after the plain backoff instead — or, under a 5 s deadline, giving up
// without trying it.
func TestRetryAfterHoldsOnlyItsShard(t *testing.T) {
	fl, rb := remote(t, named("hold-only-its-shard"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	evaluate(t, ctx, rb, scenario(0.5))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shard 2 answered after %v; a hold-off delayed the attempt on it", elapsed)
	}
	expectCounts(t, fl, evalRoute, 1, 1, 1)
}

// TestRemoteBackendRetryBudgetCappedByContext: a Retry-After the request
// context cannot afford aborts the retry loop immediately instead of
// sleeping into a guaranteed deadline miss.
func TestRemoteBackendRetryBudgetCappedByContext(t *testing.T) {
	hourly := fleettest.Fault{Route: evalRoute, Kind: fleettest.Busy, Arg: 3} // every request: 503, Retry-After 1 h
	_, rb := remote(t, fleettest.Schedule{Shards: 1, Faults: []fleettest.Fault{hourly}}, eval.WithRetry(5, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rb.Evaluate(ctx, scenario(0.5))
	if err == nil || !strings.Contains(err.Error(), "outlives the context") {
		t.Fatalf("want the early-abort error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("early abort took %v; it must not sleep out the Retry-After", elapsed)
	}
}

// The door the benchmark calls: EvaluateBatch is a loop of Evaluate
// calls over /v1/eval.

// TestBatchBackendCoalescesConcurrentEvaluates: the door holds no
// batching state to share — concurrent EvaluateBatch calls travel as one
// /v1/eval request per scenario, and every caller gets its own cells
// back, in its own order.
func TestBatchBackendCoalescesConcurrentEvaluates(t *testing.T) {
	fl, rb := remote(t, clean(1))
	const n = 8
	var wg sync.WaitGroup
	scs, pts, errs := make([][]eval.Scenario, n), make([][]eval.Point, n), make([]error, n)
	for i := range scs {
		scs[i] = scenarios(2, 2*i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts[i], errs[i] = rb.EvaluateBatch(context.Background(), scs[i])
		}(i)
	}
	wg.Wait()
	for i := range scs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		expectLocal(t, scs[i], pts[i])
	}
	expectCounts(t, fl, evalRoute, 2*n)
}

// TestBatchBackendSizeBoundFlushes: an explicit list travels as it is —
// the door has no size bound to split it at and no batch to fill, so 200
// scenarios are 200 /v1/eval requests, answered in request order.
func TestBatchBackendSizeBoundFlushes(t *testing.T) {
	fl, rb := remote(t, clean(1))
	batch(t, rb, scenarios(200, 0))
	expectCounts(t, fl, evalRoute, 200)
}

func TestEvaluateBatchSingleCell(t *testing.T) {
	fl, rb := remote(t, clean(1))
	batch(t, rb, scenarios(1, 0))
	expectCounts(t, fl, evalRoute, 1)
}

// TestEvaluateBatchUnstablePoint pins the NaN/Inf → null wire rule
// through the door: a saturated model cell (model +Inf, sim NaN) crosses
// as nulls and comes back losslessly.
func TestEvaluateBatchUnstablePoint(t *testing.T) {
	_, rb := remote(t, clean(1))
	pts, err := rb.EvaluateBatch(context.Background(), []eval.Scenario{scenario(1.2)})
	if err != nil {
		t.Fatal(err)
	}
	if pt := pts[0]; !math.IsInf(pt.Model, 1) || !pt.ModelSaturated || !math.IsNaN(pt.Sim) || !math.IsNaN(pt.SimCI) {
		t.Errorf("saturated cell not recovered: %+v", pt)
	}
}

// TestEvaluateBatchPerItemError: the first scenario the shard refuses
// fails the call, permanently, naming its index; no scenario after it is
// sent.
func TestEvaluateBatchPerItemError(t *testing.T) {
	fl, rb := remote(t, clean(1), eval.WithRetry(3, time.Millisecond))
	scs := scenarios(3, 0)
	scs[1].Topology.Size = 5
	if _, err := rb.EvaluateBatch(context.Background(), scs); err == nil || !strings.Contains(err.Error(), "scenario 1") {
		t.Fatalf("want the indexed verdict, got %v", err)
	}
	expectCounts(t, fl, evalRoute, 2)
}

// TestBatchBackendFailsOverToHealthyShard: each of the door's requests
// rides the retry loop, the first from shard 0 and the second from shard
// 1, past the failing shards to the healthy one.
func TestBatchBackendFailsOverToHealthyShard(t *testing.T) {
	fl, rb := remote(t, named("remote-failover"))
	batch(t, rb, scenarios(2, 0))
	expectCounts(t, fl, evalRoute, 1, 2, 2)
}

// TestBatchBackendCallerCancellation: cancelling an EvaluateBatch whose
// shard has gone quiet (and no idle bound to end it) returns the
// context's error promptly, and the client answers the next call.
func TestBatchBackendCallerCancellation(t *testing.T) {
	stall := fleettest.Fault{Route: evalRoute, Nth: 1, Kind: fleettest.Stall}
	fl, rb := remote(t, fleettest.Schedule{Shards: 1, Faults: []fleettest.Fault{stall}}, eval.WithIdleTimeout(0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rb.EvaluateBatch(ctx, scenarios(1, 0))
		done <- err
	}()
	for fl.Count("", 0, evalRoute) == 0 {
		time.Sleep(time.Millisecond) // cancel mid-request, not before it
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v, want the context's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller never returned")
	}
	batch(t, rb, scenarios(1, 0))
}

// The list route: Stream is one attempt at a /v1/sweep/part range on the
// shard its caller names.

// gridSpec is a bft-64 model grid: n loads at fractions in (0, 1) of
// saturation, for each of sizes (64 when none are given).
func gridSpec(n int, sizes ...int) sweep.Spec {
	if len(sizes) == 0 {
		sizes = []int{64}
	}
	fracs := make([]float64, n)
	for i := range fracs {
		fracs[i] = float64(i+1) / float64(n+1)
	}
	return sweep.Spec{
		Name:       "part",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: sizes}},
		MsgFlits:   []int{8},
		Loads:      sweep.LoadSpec{Fracs: fracs},
	}
}

// partBody is the /v1/sweep/part request for the cells [lo, hi) of spec.
func partBody(t *testing.T, spec sweep.Spec, lo, hi int) []byte {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(eval.PartRequest{Spec: specJSON, Start: lo, End: hi})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// stream asks shard 0 for the cells [lo, hi) of spec in one Stream and
// returns the items it delivered, by grid index.
func stream(t *testing.T, ctx context.Context, rb *eval.RemoteBackend, spec sweep.Spec, lo, hi int) (map[int]eval.PartItem, error) {
	t.Helper()
	got := make(map[int]eval.PartItem)
	err := rb.Stream(ctx, rb.Addrs()[0], "/v1/sweep/part", partBody(t, spec, lo, hi), lo, hi, func(it *eval.PartItem) error {
		kept := *it
		if it.Point != nil {
			pt := *it.Point // the stream reuses it for the next line
			kept.Point = &pt
		}
		got[it.Index] = kept
		return nil
	})
	return got, err
}

// expectGrid fails t unless got holds exactly the cells [lo, hi) of spec,
// as the in-process runner computes them.
func expectGrid(t *testing.T, spec sweep.Spec, lo, hi int, got map[int]eval.PartItem) {
	t.Helper()
	res, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var scs []eval.Scenario
	var pts []eval.Point
	for i := lo; i < hi; i++ {
		it, ok := got[i]
		if !ok || it.Point == nil {
			t.Fatalf("cell %d not delivered: %+v", i, got)
		}
		scs, pts = append(scs, res.Rows[i].Scenario), append(pts, *it.Point)
	}
	if len(got) != hi-lo {
		t.Errorf("%d cell(s) delivered for [%d, %d)", len(got), lo, hi)
	}
	expectLocal(t, scs, pts)
}

func TestStreamAnswersRange(t *testing.T) {
	fl, rb := remote(t, clean(1))
	spec := gridSpec(4)
	got, err := stream(t, context.Background(), rb, spec, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	expectGrid(t, spec, 1, 3, got)
	expectCounts(t, fl, partRoute, 1)
}

// expectTransient fails t unless err is a transient failure saying what.
func expectTransient(t *testing.T, err error, what string) {
	t.Helper()
	if _, transient := eval.Transient(err); !transient || !strings.Contains(err.Error(), what) {
		t.Fatalf("want a transient %s-stream error, got %v", what, err)
	}
}

// TestStreamTornIsTransient: a stream torn mid-line is a transient
// failure — a shard's, not the cells' — that keeps the cell delivered
// before the tear; the caller's next attempt is answered whole, and a
// shard that always tears fails every attempt the same way.
func TestStreamTornIsTransient(t *testing.T) {
	fl, rb := remote(t, named("batch-torn"))
	spec := gridSpec(3)
	got, err := stream(t, context.Background(), rb, spec, 0, 3)
	expectTransient(t, err, "torn")
	if len(got) != 1 {
		t.Errorf("the torn stream delivered %d cell(s), want the one before the tear", len(got))
	}
	if got, err = stream(t, context.Background(), rb, spec, 0, 3); err != nil {
		t.Fatal(err)
	}
	expectGrid(t, spec, 0, 3, got)
	expectCounts(t, fl, partRoute, 2)

	always := fleettest.Fault{Route: partRoute, Kind: fleettest.Cut, Arg: 3} // every request: torn after one cell
	fl, rb = remote(t, fleettest.Schedule{Shards: 1, Faults: []fleettest.Fault{always}})
	for i := 0; i < 2; i++ {
		_, err := stream(t, context.Background(), rb, spec, 0, 3)
		expectTransient(t, err, "torn")
	}
	expectCounts(t, fl, partRoute, 2)
}

// TestStreamShortIsTransient: a stream that ends cleanly but short (a
// shard shutting down mid-range) is a transient failure; the next
// attempt is answered.
func TestStreamShortIsTransient(t *testing.T) {
	fl, rb := remote(t, named("batch-short"))
	spec := gridSpec(3)
	got, err := stream(t, context.Background(), rb, spec, 0, 3)
	expectTransient(t, err, "short")
	if len(got) != 1 {
		t.Errorf("the short stream delivered %d cell(s), want 1", len(got))
	}
	if got, err = stream(t, context.Background(), rb, spec, 0, 3); err != nil {
		t.Fatal(err)
	}
	expectGrid(t, spec, 0, 3, got)
	expectCounts(t, fl, partRoute, 2)
}

// TestStreamSkipsHeartbeats: keepalive lines before a range's first
// cell or between its cells, past the idle bound, are transparent — they
// only feed the idle watchdog.
func TestStreamSkipsHeartbeats(t *testing.T) {
	fl, rb := remote(t, named("heartbeats"))
	spec := gridSpec(3)
	for i := 0; i < 2; i++ {
		got, err := stream(t, context.Background(), rb, spec, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		expectGrid(t, spec, 0, 3, got)
	}
	expectCounts(t, fl, partRoute, 2)
}

// TestStreamPerItemError: a cell the shard fails arrives as that cell's
// error line, not the stream's: the stream succeeds, the other cells
// carry their points.
func TestStreamPerItemError(t *testing.T) {
	_, rb := remote(t, clean(1))
	spec := gridSpec(2, 64, 5) // 5 is not a power of four
	got, err := stream(t, context.Background(), rb, spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d item(s), want 4: %+v", len(got), got)
	}
	for i, it := range got {
		bad := i >= 2 // the bft-5 curve
		if bad != (it.Error != "") || bad != (it.Point == nil) || bad && !strings.Contains(it.Error, "size 5") {
			t.Errorf("cell %d: %+v", i, it)
		}
	}
}

// TestStreamIndexOutOfRangeIsPermanent: a line for an index outside the
// caller's range is a protocol breach, which no other shard would answer
// differently.
func TestStreamIndexOutOfRangeIsPermanent(t *testing.T) {
	_, rb := remote(t, clean(1))
	body := partBody(t, gridSpec(3), 0, 3)
	err := rb.Stream(context.Background(), rb.Addrs()[0], "/v1/sweep/part", body, 0, 1, func(*eval.PartItem) error { return nil })
	if _, transient := eval.Transient(err); err == nil || transient || !strings.Contains(err.Error(), "outside [0, 1)") {
		t.Fatalf("want a permanent out-of-range error, got %v", err)
	}
}

// TestStreamCallerCancellation: cancelling a Stream whose shard has gone
// quiet (and no idle bound to end it) returns the context's error
// promptly, and the client answers the next call.
func TestStreamCallerCancellation(t *testing.T) {
	stall := fleettest.Fault{Route: partRoute, Nth: 1, Kind: fleettest.Stall}
	fl, rb := remote(t, fleettest.Schedule{Shards: 1, Faults: []fleettest.Fault{stall}}, eval.WithIdleTimeout(0))
	spec := gridSpec(2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := stream(t, ctx, rb, spec, 0, 2)
		done <- err
	}()
	for fl.Count("", 0, partRoute) == 0 {
		time.Sleep(time.Millisecond) // cancel mid-request, not before it
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled stream returned %v, want the context's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller never returned")
	}
	got, err := stream(t, context.Background(), rb, spec, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	expectGrid(t, spec, 0, 2, got)
}
