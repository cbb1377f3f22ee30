package eval

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// evalHandler is a minimal stand-in for a sweep server's /v1/eval: it
// answers every scenario with a fixed model latency (so tests can tell
// shards apart) after consulting fail, which may veto the request.
func evalHandler(t *testing.T, latency float64, hits *atomic.Int64, fail func(n int64) int) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/eval" || r.Method != http.MethodPost {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		n := hits.Add(1)
		if fail != nil {
			if code := fail(n); code != 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(code)
				json.NewEncoder(w).Encode(map[string]string{"error": "induced failure"})
				return
			}
		}
		var sc Scenario
		if err := json.NewDecoder(r.Body).Decode(&sc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pt := NewPoint()
		pt.LoadFlits = sc.Load.Value
		pt.Model = latency
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(pt)
	})
}

func newRemote(t *testing.T, addrs []string, opts ...RemoteOption) *RemoteBackend {
	t.Helper()
	rb, err := NewRemoteBackend(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

func TestRemoteBackendEvaluate(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(evalHandler(t, 42, &hits, nil))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL})
	sc := bftScenario(false)
	pt, err := rb.Evaluate(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Model != 42 || pt.LoadFlits != sc.Load.Value {
		t.Errorf("remote point mangled: %+v", pt)
	}
	if hits.Load() != 1 {
		t.Errorf("server hit %d times, want 1", hits.Load())
	}
}

func TestRemoteBackendRoundRobinSharding(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	srvA := httptest.NewServer(evalHandler(t, 1, &hitsA, nil))
	defer srvA.Close()
	srvB := httptest.NewServer(evalHandler(t, 2, &hitsB, nil))
	defer srvB.Close()

	rb := newRemote(t, []string{srvA.URL, srvB.URL})
	sc := bftScenario(false)
	for i := 0; i < 6; i++ {
		if _, err := rb.Evaluate(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	if hitsA.Load() != 3 || hitsB.Load() != 3 {
		t.Errorf("round robin skewed: shard A %d, shard B %d", hitsA.Load(), hitsB.Load())
	}
}

func TestRemoteBackendRetriesTransientFailures(t *testing.T) {
	var hits atomic.Int64
	// The first two attempts 500; the third succeeds.
	srv := httptest.NewServer(evalHandler(t, 7, &hits, func(n int64) int {
		if n <= 2 {
			return http.StatusInternalServerError
		}
		return 0
	}))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL}, WithRetry(3, time.Millisecond))
	pt, err := rb.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if pt.Model != 7 || hits.Load() != 3 {
		t.Errorf("model=%v hits=%d, want 7/3", pt.Model, hits.Load())
	}
}

func TestRemoteBackendPermanentErrorNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(evalHandler(t, 0, &hits, func(int64) int { return http.StatusBadRequest }))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL}, WithRetry(5, time.Millisecond))
	_, err := rb.Evaluate(context.Background(), bftScenario(false))
	if err == nil || !strings.Contains(err.Error(), "induced failure") {
		t.Fatalf("want the server's message, got %v", err)
	}
	if hits.Load() != 1 {
		t.Errorf("4xx retried: %d attempts", hits.Load())
	}
}

func TestRemoteBackendFailsOverToHealthyShard(t *testing.T) {
	var sick, healthy atomic.Int64
	srvSick := httptest.NewServer(evalHandler(t, 0, &sick, func(int64) int { return http.StatusServiceUnavailable }))
	defer srvSick.Close()
	srvOK := httptest.NewServer(evalHandler(t, 9, &healthy, nil))
	defer srvOK.Close()

	rb := newRemote(t, []string{srvSick.URL, srvOK.URL}, WithRetry(4, time.Millisecond))
	pt, err := rb.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	if pt.Model != 9 {
		t.Errorf("answer came from the wrong shard: %+v", pt)
	}
}

// TestRemoteBackend429IsRetried: a rate-limited shard is retried, and a
// Retry-After of zero means an immediate next attempt.
func TestRemoteBackend429IsRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		pt := NewPoint()
		pt.LoadFlits, pt.Model = 0.01, 11
		json.NewEncoder(w).Encode(pt)
	}))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL}, WithRetry(3, time.Millisecond))
	pt, err := rb.Evaluate(context.Background(), bftScenario(false))
	if err != nil {
		t.Fatalf("429 not retried: %v", err)
	}
	if pt.Model != 11 || hits.Load() != 2 {
		t.Errorf("model=%v hits=%d, want 11/2", pt.Model, hits.Load())
	}
}

// TestRemoteBackendHonoursRetryAfter: the server's Retry-After stretches
// the backoff beyond the exponential schedule.
func TestRemoteBackendHonoursRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		pt := NewPoint()
		pt.LoadFlits, pt.Model = 0.01, 12
		json.NewEncoder(w).Encode(pt)
	}))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL}, WithRetry(3, time.Millisecond))
	start := time.Now()
	if _, err := rb.Evaluate(context.Background(), bftScenario(false)); err != nil {
		t.Fatalf("503 with Retry-After not retried: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, want >= the server's 1s Retry-After", elapsed)
	}
}

// TestRemoteBackendRetryBudgetCappedByContext: a Retry-After the request
// context cannot afford aborts the retry loop immediately instead of
// sleeping into a guaranteed deadline miss.
func TestRemoteBackendRetryBudgetCappedByContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rb := newRemote(t, []string{srv.URL}, WithRetry(5, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rb.Evaluate(ctx, bftScenario(false))
	if err == nil || !strings.Contains(err.Error(), "outlives the context") {
		t.Fatalf("want the early-abort error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("early abort took %v; it must not sleep out the Retry-After", elapsed)
	}
}

func TestRemoteBackendExhaustsRetries(t *testing.T) {
	rb := newRemote(t, []string{"http://127.0.0.1:1"}, WithRetry(2, time.Millisecond))
	_, err := rb.Evaluate(context.Background(), bftScenario(false))
	if err == nil || !strings.Contains(err.Error(), "2 attempts") {
		t.Fatalf("want exhaustion error, got %v", err)
	}
}

func TestRemoteBackendHonoursContext(t *testing.T) {
	rb := newRemote(t, []string{"http://127.0.0.1:1"}, WithRetry(10, time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := rb.Evaluate(ctx, bftScenario(false))
	if err == nil {
		t.Fatal("cancelled context succeeded")
	}
	if time.Since(start) > time.Second {
		t.Errorf("cancelled evaluate took %v (backoff not ctx-aware?)", time.Since(start))
	}
}

// TestRemoteBackendCacheTag: a fleet client tags its cells with nothing —
// which shards answer, in what order, is no part of a cell, so a runner
// over it caches as the built-in stack does — and its shard list is
// normalized: scheme added, duplicates dropped, rotation order kept, an
// empty one rejected.
func TestRemoteBackendCacheTag(t *testing.T) {
	a := newRemote(t, []string{"hostb:1", " hosta:1/", "http://hostb:1"})
	c := newRemote(t, []string{"hosta:1"})
	if a.CacheTag() != "" || c.CacheTag() != "" {
		t.Errorf("a fleet client tags its cells: %q, %q", a.CacheTag(), c.CacheTag())
	}
	if got := a.Addrs(); len(got) != 2 || got[0] != "http://hostb:1" || got[1] != "http://hosta:1" {
		t.Errorf("address normalization: %v", got)
	}
	if got := c.Addrs(); len(got) != 1 || got[0] != "http://hosta:1" {
		t.Errorf("address normalization: %v", got)
	}
	if _, err := NewRemoteBackend([]string{" ", ""}); err == nil {
		t.Error("empty address list accepted")
	}
}
