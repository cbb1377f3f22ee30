package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchHandler is a minimal /v1/batch stand-in: it answers every
// scenario with model = 10 × load so callers can check they got their
// own cell back, after consulting mangle, which may rewrite the whole
// response.
func batchHandler(t *testing.T, requests *atomic.Int64, sizes *[]int, mu *sync.Mutex,
	mangle func(w http.ResponseWriter, n int64, scs []Scenario) bool) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" || r.Method != http.MethodPost {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		n := requests.Add(1)
		var scs []Scenario
		if err := json.NewDecoder(r.Body).Decode(&scs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if mu != nil {
			mu.Lock()
			*sizes = append(*sizes, len(scs))
			mu.Unlock()
		}
		if mangle != nil && mangle(w, n, scs) {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i, sc := range scs {
			pt := NewPoint()
			pt.LoadFlits = sc.Load.Value
			pt.Model = sc.Load.Value * 10
			enc.Encode(BatchItem{Index: i, Point: &pt})
		}
	})
}

func newBatch(t *testing.T, addrs []string, opts ...RemoteOption) *RemoteBackend {
	t.Helper()
	b, err := NewBatchBackend(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loadScenario(v float64) Scenario {
	sc := bftScenario(false)
	sc.Load = Load{Value: v}
	return sc
}

// TestBatchBackendCoalescesConcurrentEvaluates: the client holds no
// batching state to share — concurrent EvaluateBatch calls on one client
// travel as one request each, and every caller gets its own cells back.
func TestBatchBackendCoalescesConcurrentEvaluates(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil, nil))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	pts := make([][]Point, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts[i], errs[i] = b.EvaluateBatch(context.Background(),
				[]Scenario{loadScenario(float64(i+1) / 100), loadScenario(float64(i+1) / 50)})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		want := float64(i+1) / 100 * 10
		if len(pts[i]) != 2 || math.Abs(pts[i][0].Model-want) > 1e-12 || math.Abs(pts[i][1].Model-2*want) > 1e-12 {
			t.Errorf("caller %d got someone else's cells: %+v, want models %v and %v", i, pts[i], want, 2*want)
		}
	}
	if requests.Load() != n {
		t.Errorf("%d concurrent batches took %d requests, want one each", n, requests.Load())
	}
}

// TestBatchBackendSizeBoundFlushes: an explicit list travels whole — the
// client has no size bound to split it at, so 200 scenarios are one
// request.
func TestBatchBackendSizeBoundFlushes(t *testing.T) {
	var requests atomic.Int64
	var sizes []int
	var mu sync.Mutex
	srv := httptest.NewServer(batchHandler(t, &requests, &sizes, &mu, nil))
	defer srv.Close()

	const n = 200
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = loadScenario(float64(i+1) / 1000)
	}
	pts, err := newBatch(t, []string{srv.URL}).EvaluateBatch(context.Background(), scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n || math.Abs(pts[n-1].Model-float64(n)/100) > 1e-12 {
		t.Errorf("list mangled: %d cells, last model %v", len(pts), pts[len(pts)-1].Model)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != n {
		t.Errorf("%d scenarios travelled as requests of %v, want one of %d", n, sizes, n)
	}
}

// TestEvaluateBatchEmpty: an empty batch is answered locally, no wire.
func TestEvaluateBatchEmpty(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil, nil))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL})
	pts, err := b.EvaluateBatch(context.Background(), nil)
	if err != nil || pts != nil {
		t.Fatalf("empty batch: %v, %v", pts, err)
	}
	if requests.Load() != 0 {
		t.Errorf("empty batch touched the wire (%d requests)", requests.Load())
	}
}

// TestEvaluateBatchSingleCell: the one-cell batch round-trips.
func TestEvaluateBatchSingleCell(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil, nil))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL})
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.03)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || math.Abs(pts[0].Model-0.3) > 1e-12 {
		t.Fatalf("single-cell batch: %+v", pts)
	}
}

// TestEvaluateBatchUnstablePoint pins the NaN/Inf → null wire rule
// through the batched path: a saturated model cell (model +Inf, sim NaN)
// crosses as nulls and comes back losslessly.
func TestEvaluateBatchUnstablePoint(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pt := NewPoint() // every field NaN
		pt.LoadFlits = 0.5
		pt.Model = math.Inf(1)
		pt.ModelSaturated = true
		line, _ := json.Marshal(BatchItem{Index: 0, Point: &pt})
		if strings.Contains(string(line), "Inf") || strings.Contains(string(line), "NaN") {
			t.Errorf("non-finite value leaked onto the wire: %s", line)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(append(line, '\n'))
	}))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL})
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if !math.IsInf(pt.Model, 1) || !pt.ModelSaturated {
		t.Errorf("saturated model not recovered: %+v", pt)
	}
	if !math.IsNaN(pt.Sim) || !math.IsNaN(pt.SimCI) {
		t.Errorf("absent sim fields not NaN: %+v", pt)
	}
}

// TestEvaluateBatchTornStream: a response stream torn mid-line is
// retryable; a server that always tears exhausts the attempts with a
// torn-stream error.
func TestEvaluateBatchTornStream(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil,
		func(w http.ResponseWriter, n int64, scs []Scenario) bool {
			pt := NewPoint()
			pt.LoadFlits, pt.Model = 0.01, 0.1
			json.NewEncoder(w).Encode(BatchItem{Index: 0, Point: &pt})
			fmt.Fprint(w, `{"index":1,"point":{"load_fl`) // torn mid-line
			return true
		}))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL}, WithRetry(2, time.Millisecond))
	_, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.01), loadScenario(0.02)})
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("want a torn-stream error, got %v", err)
	}
	if requests.Load() != 2 {
		t.Errorf("torn stream retried %d time(s), want 2 attempts", requests.Load())
	}
}

// TestEvaluateBatchShortStreamRecovers: a stream that ends cleanly but
// short (a shard shutting down mid-batch) is retried; the second attempt
// answers in full.
func TestEvaluateBatchShortStreamRecovers(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil,
		func(w http.ResponseWriter, n int64, scs []Scenario) bool {
			if n > 1 {
				return false // answer normally from the second attempt on
			}
			pt := NewPoint()
			pt.LoadFlits, pt.Model = 0.01, 0.1
			json.NewEncoder(w).Encode(BatchItem{Index: 0, Point: &pt})
			return true // item 1 never arrives
		}))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL}, WithRetry(3, time.Millisecond))
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.01), loadScenario(0.02)})
	if err != nil {
		t.Fatalf("short stream did not recover: %v", err)
	}
	if len(pts) != 2 || math.Abs(pts[1].Model-0.2) > 1e-12 {
		t.Fatalf("recovered batch wrong: %+v", pts)
	}
	if requests.Load() != 2 {
		t.Errorf("recovery took %d requests, want 2", requests.Load())
	}
}

// TestEvaluateBatchPerItemError: a scenario-level verdict inside the
// stream is permanent and surfaces with its index.
func TestEvaluateBatchPerItemError(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil,
		func(w http.ResponseWriter, n int64, scs []Scenario) bool {
			enc := json.NewEncoder(w)
			pt := NewPoint()
			pt.LoadFlits, pt.Model = 0.01, 0.1
			enc.Encode(BatchItem{Index: 0, Point: &pt})
			enc.Encode(BatchItem{Index: 1, Error: "induced verdict"})
			return true
		}))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL}, WithRetry(3, time.Millisecond))
	_, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.01), loadScenario(0.02)})
	if err == nil || !strings.Contains(err.Error(), "scenario 1") || !strings.Contains(err.Error(), "induced verdict") {
		t.Fatalf("want the indexed verdict, got %v", err)
	}
	if requests.Load() != 1 {
		t.Errorf("permanent verdict retried: %d requests", requests.Load())
	}
}

// TestEvaluateBatchSkipsHeartbeats: keepalive lines (index -1, no
// error) inside the stream are transparent to the caller — they only
// feed the idle watchdog.
func TestEvaluateBatchSkipsHeartbeats(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil,
		func(w http.ResponseWriter, n int64, scs []Scenario) bool {
			enc := json.NewEncoder(w)
			enc.Encode(BatchItem{Index: -1}) // heartbeat before any cell
			pt := NewPoint()
			pt.LoadFlits, pt.Model = 0.01, 0.1
			enc.Encode(BatchItem{Index: 0, Point: &pt})
			enc.Encode(BatchItem{Index: -1}) // and between cells
			pt2 := NewPoint()
			pt2.LoadFlits, pt2.Model = 0.02, 0.2
			enc.Encode(BatchItem{Index: 1, Point: &pt2})
			return true
		}))
	defer srv.Close()

	b := newBatch(t, []string{srv.URL})
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.01), loadScenario(0.02)})
	if err != nil {
		t.Fatalf("heartbeats broke the batch: %v", err)
	}
	if len(pts) != 2 || math.Abs(pts[0].Model-0.1) > 1e-12 || math.Abs(pts[1].Model-0.2) > 1e-12 {
		t.Fatalf("cells mangled around heartbeats: %+v", pts)
	}
	if requests.Load() != 1 {
		t.Errorf("heartbeats triggered a retry: %d requests", requests.Load())
	}
}

// TestBatchBackendFailsOverToHealthyShard: a batch bounced by one shard
// (5xx) lands on the next.
func TestBatchBackendFailsOverToHealthyShard(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "sick", http.StatusServiceUnavailable)
	}))
	defer sick.Close()
	var requests atomic.Int64
	healthy := httptest.NewServer(batchHandler(t, &requests, nil, nil, nil))
	defer healthy.Close()

	b := newBatch(t, []string{sick.URL, healthy.URL}, WithRetry(4, time.Millisecond))
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.04)})
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	if math.Abs(pts[0].Model-0.4) > 1e-12 {
		t.Errorf("answer from the wrong shard: %+v", pts[0])
	}
}

// TestBatchBackendSharesFleetCacheTag: the deprecated constructor returns
// the fleet client itself, so its tag is the client's — none — and an
// empty address list is rejected the same way.
func TestBatchBackendSharesFleetCacheTag(t *testing.T) {
	b := newBatch(t, []string{"hostb:1", "hosta:1"})
	rb := newRemote(t, []string{"hosta:1"})
	if b.CacheTag() != "" || b.CacheTag() != rb.CacheTag() {
		t.Errorf("constructors tag their cells differently: %q vs %q", b.CacheTag(), rb.CacheTag())
	}
	if _, err := NewBatchBackend(nil); err == nil {
		t.Error("empty address list accepted")
	}
}

// TestBatchBackendCallerCancellation: cancelling an EvaluateBatch whose
// shard has gone quiet returns the context's error promptly, and the
// client answers the next call.
func TestBatchBackendCallerCancellation(t *testing.T) {
	release := make(chan struct{})
	var requests atomic.Int64
	srv := httptest.NewServer(batchHandler(t, &requests, nil, nil,
		func(w http.ResponseWriter, n int64, scs []Scenario) bool {
			if n == 1 {
				<-release
			}
			return false
		}))
	defer srv.Close()
	defer close(release)

	b := newBatch(t, []string{srv.URL})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.EvaluateBatch(ctx, []Scenario{loadScenario(0.01)})
		done <- err
	}()
	for requests.Load() == 0 {
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
	pts, err := b.EvaluateBatch(context.Background(), []Scenario{loadScenario(0.02)})
	if err != nil || len(pts) != 1 || math.Abs(pts[0].Model-0.2) > 1e-12 {
		t.Fatalf("client unusable after a cancelled call: %+v, %v", pts, err)
	}
}
