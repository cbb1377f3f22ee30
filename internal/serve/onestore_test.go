package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/dispatch"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestOneDirectoryThreeFrontDoors: cmd/sweep, sweepd and cmd/plan all
// evaluate through a default sweep.Runner, so a cell is one Scenario.Key
// record whichever of them computed it. A store directory filled through
// the sweep door is all hits through the daemon's door — nothing
// recomputed, nothing appended, and a map mined from it counts each
// measurement once — through a fleet coordinator's (the fourth door:
// -shards on any of the three), which sends its shards nothing, and a
// plan's coarse grid is all hits on the cells a sweep already wrote.
func TestOneDirectoryThreeFrontDoors(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	figure3, err := sweep.Builtin("figure3-small")
	if err != nil {
		t.Fatal(err)
	}
	capacity, err := plan.Builtin("bft-capacity-small")
	if err != nil {
		t.Fatal(err)
	}
	capacity.Search.PruneFracs = []float64{0.3, 0.6, 0.9, 1.02}
	capacity.SkipCertify = true
	// The plan's coarse grid, asked as a sweep.
	coarse := sweep.Spec{
		Name:       "coarse-as-a-sweep",
		Topologies: capacity.Space.Topologies,
		MsgFlits:   capacity.Space.MsgFlits,
		Loads:      sweep.LoadSpec{Fracs: capacity.Search.PruneFracs},
	}

	// Door one: cmd/sweep -cache-dir.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	door1 := sweep.NewRunner(sweep.WithCache(st))
	res, err := door1.Run(ctx, figure3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := door1.Run(ctx, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits+grid.CacheHits != 0 {
		t.Fatalf("a fresh directory served %d+%d hits", res.CacheHits, grid.CacheHits)
	}
	pairable := 0
	for _, row := range res.Rows {
		if row.Sim > 0 && !row.SimSaturated && !row.ModelSaturated {
			pairable++
		}
	}
	if pairable != 8 {
		t.Fatalf("%d of %d figure3-small cells are pairable, want all 8", pairable, len(res.Rows))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Door two: sweepd -cache-dir on the same directory.
	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plainLines := func(door string) {
		t.Helper()
		st.Range(func(key string, _ sweep.Cell) bool {
			if strings.HasPrefix(key, "backends=") {
				t.Errorf("%s wrote a salted line: %s", door, key)
			}
			return true
		})
	}
	plainLines("a default runner")
	cells := st.Len()
	bytes, err := st.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if cells != len(res.Rows)+len(grid.Rows) {
		t.Fatalf("store holds %d cells after %d+%d were computed", cells, len(res.Rows), len(grid.Rows))
	}
	m := calib.NewMap()
	m.Mine(ctx, st)
	srv := newTestServer(t, WithCache(st), WithCalibration(m))
	body, _ := json.Marshal(figure3)
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":`+string(body)+`}`))
	if len(items) != len(res.Rows) {
		t.Errorf("streamed %d cells, want %d", len(items), len(res.Rows))
	}
	for idx, it := range items {
		if it.Point == nil {
			t.Errorf("cell %d failed: %s", idx, it.Error)
		}
	}
	if n := st.Len(); n != cells {
		t.Errorf("serving a stored grid grew the store from %d to %d cells", cells, n)
	}
	if n, err := st.DiskBytes(); err != nil || n != bytes {
		t.Errorf("serving a stored grid grew the directory from %d to %d bytes (%v)", bytes, n, err)
	}
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		CacheHits   int `json:"cache_hits"`
		CacheMisses int `json:"cache_misses"`
		Calibration struct {
			Pairs int `json:"pairs"`
		} `json:"calibration"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.CacheMisses != 0 || health.CacheHits != len(res.Rows) {
		t.Errorf("the daemon missed %d and hit %d of the %d cells the sweep had stored", health.CacheMisses, health.CacheHits, len(res.Rows))
	}
	if health.Calibration.Pairs != pairable {
		t.Errorf("/healthz calibration.pairs = %d for %d measurements", health.Calibration.Pairs, pairable)
	}

	// Door four: a coordinator over two shards on the same directory, as
	// cmd/sweep -shards -cache-dir or cmd/plan -shards -cache-dir run it.
	d, err := dispatch.New([]string{newTestServer(t).URL, newTestServer(t).URL}, dispatch.WithCache(st))
	if err != nil {
		t.Fatal(err)
	}
	dispatched, err := d.Run(ctx, figure3)
	if err != nil {
		t.Fatal(err)
	}
	if dispatched.CacheHits != len(res.Rows) || d.Stats().Cells != 0 {
		t.Errorf("the coordinator hit %d of %d stored cells and had its shards compute %d", dispatched.CacheHits, len(res.Rows), d.Stats().Cells)
	}
	if n := st.Len(); n != cells {
		t.Errorf("dispatching a stored grid grew the store from %d to %d cells", cells, n)
	}
	if n, err := st.DiskBytes(); err != nil || n != bytes {
		t.Errorf("dispatching a stored grid grew the directory from %d to %d bytes (%v)", bytes, n, err)
	}

	// Door three: cmd/plan -cache-dir.
	planned, err := plan.NewLocal(st).Run(ctx, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if s := planned.Stats; s.CoarseCells != len(grid.Rows) || s.CoarseCacheHits != s.CoarseCells {
		t.Errorf("plan hit %d of its %d coarse cells; the sweep had stored all %d", s.CoarseCacheHits, s.CoarseCells, len(grid.Rows))
	}
	plainLines("one of the four doors")
}
