package eval

import (
	"context"
	"strings"
	"testing"
	"time"
)

// The fleet transport against live shards, faults included, is tested in
// fleet_test.go over internal/fleettest; these tests need no shard.

func newRemote(t *testing.T, addrs []string, opts ...RemoteOption) *RemoteBackend {
	t.Helper()
	rb, err := NewRemoteBackend(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rb
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

// TestEvaluateBatchEmpty: an empty batch is answered locally; the
// address refuses connections, so touching the wire would fail it.
func TestEvaluateBatchEmpty(t *testing.T) {
	pts, err := newRemote(t, []string{"http://127.0.0.1:1"}).EvaluateBatch(context.Background(), nil)
	if err != nil || pts != nil {
		t.Fatalf("empty batch: %v, %v", pts, err)
	}
}

// TestBackoffIsCapped: the one backoff rule of the fleet's clients
// doubles from its base, never past 5 s and never down — however many
// failures in a row, whatever the base.
func TestBackoffIsCapped(t *testing.T) {
	for _, base := range []time.Duration{time.Nanosecond, time.Millisecond, 100 * time.Millisecond, time.Second, time.Minute} {
		prev := time.Duration(0)
		for n := 1; n <= 200; n++ {
			d := Backoff(base, n)
			if d > maxBackoff || d < prev || d <= 0 {
				t.Fatalf("Backoff(%v, %d) = %v after %v: want a non-decreasing delay in (0, %v]", base, n, d, prev, maxBackoff)
			}
			prev = d
		}
		if want := min(base, maxBackoff); Backoff(base, 1) != want {
			t.Errorf("Backoff(%v, 1) = %v, want %v", base, Backoff(base, 1), want)
		}
	}
}

// TestRemoteBackendNormalizesAddrs: a fleet client's shard list is
// normalized — scheme added, duplicates dropped, rotation order kept —
// and an empty one is rejected.
func TestRemoteBackendNormalizesAddrs(t *testing.T) {
	a := newRemote(t, []string{"hostb:1", " hosta:1/", "http://hostb:1"})
	c := newRemote(t, []string{"hosta:1"})
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
