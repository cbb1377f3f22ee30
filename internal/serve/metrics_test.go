package serve

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/store"
)

// scrape fetches and parses a server's /metrics.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return samples
}

// TestMetricsArePerInstance: two servers in one process, each over its
// own store. Filling and pruning one store moves that server's series
// and leaves the other's at zero — a Store is an instance, and so are
// its numbers.
func TestMetricsArePerInstance(t *testing.T) {
	open := func() *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	busy, idle := open(), open()
	key := func(i int) string {
		sc := eval.Scenario{Topology: eval.Topology{Family: eval.FamilyBFT, Size: 64}, MsgFlits: 16, Load: eval.Load{Frac: true, Value: float64(i+1) / 64}}
		return sc.Key()
	}
	for i := 0; i < 20; i++ {
		busy.Put(key(i), eval.NewPoint())
	}
	if err := busy.Flush(); err != nil {
		t.Fatal(err)
	}
	if evicted, err := busy.Prune(1); err != nil || evicted == 0 {
		t.Fatalf("Prune evicted %d cells, err %v", evicted, err)
	}
	busy.Put(key(20), eval.NewPoint())
	if err := busy.Flush(); err != nil {
		t.Fatal(err)
	}
	a := scrape(t, newTestServer(t, WithCache(busy)).URL)
	b := scrape(t, newTestServer(t, WithCache(idle)).URL)

	if a["store_pruned_bytes_total"] <= 0 || a["sweep_store_disk_bytes"] <= 0 || a["sweep_cache_cells"] <= 0 {
		t.Errorf("busy server: pruned %v, disk bytes %v, cells %v; want each > 0",
			a["store_pruned_bytes_total"], a["sweep_store_disk_bytes"], a["sweep_cache_cells"])
	}
	for _, name := range []string{"store_pruned_bytes_total", "sweep_store_disk_bytes", "sweep_cache_cells"} {
		if v, ok := b[name]; !ok || v != 0 {
			t.Errorf("idle server: %s = %v (present %v), want 0: another instance's work leaked in", name, v, ok)
		}
	}
}

// TestInstrumentAllocs pins the request path's accounting cost: the
// endpoint slot and the span name are resolved once per route, so an
// untraced, unlogged request pays for its status recorder and nothing
// else — observing it allocates nothing.
func TestInstrumentAllocs(t *testing.T) {
	s := New()
	ep := s.traffic.endpoints[0]
	if n := testing.AllocsPerRun(200, func() { ep.observe(http.StatusOK, 3*time.Millisecond) }); n != 0 {
		t.Errorf("endpoint.observe allocates %v times per request, want 0", n)
	}
	h := s.instrument("/probe", func(http.ResponseWriter, *http.Request) {})
	req, err := http.NewRequest(http.MethodGet, "/probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { h(nil, req) }); n > 1 && !race.Enabled {
		t.Errorf("instrumented no-op request allocates %v times, want 1 (the status recorder)", n)
	}
}
