package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/calib"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// seedCalibMap builds a map with one observed bft-64/s=8/pairqueue pair
// at ~0.6× saturation with 10% model error.
func seedCalibMap(t *testing.T) *calib.Map {
	t.Helper()
	topo := eval.Topology{Family: eval.FamilyBFT, Size: 64}
	sat, err := eval.NewAnalyticBackend().SaturationLoad(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc := eval.Scenario{
		Topology: topo,
		MsgFlits: 8,
		Policy:   sim.PairQueue,
		Load:     eval.Load{Frac: true, Value: 0.6},
		WithSim:  true,
		Budget:   eval.Budget{Warmup: 100, Measure: 200, Seed: 3},
	}
	pt := eval.NewPoint()
	pt.LoadFlits = 0.6 * sat
	pt.Model = 110
	pt.Sim = 100
	m := calib.NewMap()
	if !m.Observe(t.Context(), sc.Key(), pt) {
		t.Fatal("seed cell did not pair")
	}
	return m
}

// rangeCounter is a cache that counts full-index walks.
type rangeCounter struct {
	*sweep.Cache
	ranges atomic.Int64
}

func (c *rangeCounter) Range(fn func(key string, cell sweep.Cell) bool) {
	c.ranges.Add(1)
	c.Cache.Range(fn)
}

// TestCalibEndpoint pins the /v1/calib report, the /healthz calibration
// block and the calib_* gauge block on /metrics for a server carrying a
// calibration map — and that the liveness probe stays O(1): it never
// walks the cache.
func TestCalibEndpoint(t *testing.T) {
	m := seedCalibMap(t)
	cache := &rangeCounter{Cache: sweep.NewCache()}
	srv := newTestServer(t, WithCache(cache), WithCalibration(m))

	resp, err := http.Get(srv.URL + "/v1/calib")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/calib status %d", resp.StatusCode)
	}
	var rep calib.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 1 || len(rep.Regions) != 1 {
		t.Fatalf("report pairs=%d regions=%d, want 1/1", rep.Pairs, len(rep.Regions))
	}
	r := rep.Regions[0]
	if r.Name != "bft-64/s=8/pairqueue/50-75%" || r.MAPE != 0.1 {
		t.Errorf("region %q mape %v, want bft-64/s=8/pairqueue/50-75%% at 0.1", r.Name, r.MAPE)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Calibration *struct {
			Pairs      int64    `json:"pairs"`
			Regions    int      `json:"regions"`
			WorstMAPE  *float64 `json:"worst_mape"`
			StaleCells *int     `json:"stale_cells"`
		} `json:"calibration"`
		CacheCells *int `json:"cache_cells"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.CacheCells == nil {
		t.Error("/healthz lost the wrapped cache's statistics")
	}
	if n := cache.ranges.Load(); n != 0 {
		t.Errorf("/healthz walked the cache %d time(s), want 0", n)
	}
	c := health.Calibration
	if c == nil {
		t.Fatal("/healthz has no calibration block")
	}
	if c.Pairs != 1 || c.Regions != 1 {
		t.Errorf("healthz calibration pairs=%d regions=%d, want 1/1", c.Pairs, c.Regions)
	}
	if c.WorstMAPE == nil || *c.WorstMAPE != 0.1 {
		t.Errorf("healthz worst_mape %v, want 0.1", c.WorstMAPE)
	}
	if c.StaleCells != nil {
		t.Errorf("healthz still reports stale_cells (%d)", *c.StaleCells)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"calib_pairs 1",
		"calib_regions 1",
		`calib_mape{region="bft-64/s=8/pairqueue/50-75%"} 0.1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCalibEndpointAbsent pins that a server without a map 404s on
// /v1/calib and omits the calibration surfaces elsewhere.
func TestCalibEndpointAbsent(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	resp, err := http.Get(srv.URL + "/v1/calib")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/calib without a map: status %d, want 404", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["calibration"]; ok {
		t.Error("/healthz carries a calibration block without a map")
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// calib_pairs_total (the process-wide obs counter) may legitimately
	// appear; the map's own gauge block must not.
	if strings.Contains(string(body), "# TYPE calib_pairs gauge") ||
		strings.Contains(string(body), "calib_mape") {
		t.Error("/metrics carries calib gauges without a map")
	}
}

// TestServerRunnerFeedsCalibration pins the live-update path: a with-sim
// eval served over HTTP lands in the server's calibration map without
// any explicit mining step.
func TestServerRunnerFeedsCalibration(t *testing.T) {
	m := calib.NewMap()
	srv := newTestServer(t, WithCache(sweep.NewCache()), WithCalibration(m))

	sc := eval.Scenario{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 16},
		MsgFlits: 8,
		Load:     eval.Load{Frac: true, Value: 0.5},
		WithSim:  true,
		Budget:   eval.Budget{Warmup: 200, Measure: 1000, Seed: 1},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/v1/eval", string(data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/eval status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	if m.Pairs() != 1 {
		t.Fatalf("map pairs %d after a with-sim eval, want 1", m.Pairs())
	}
}
