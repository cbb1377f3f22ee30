package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fleettest"
	"repro/internal/race"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// manyCurvesSpec is a model-only grid of 24 curves across the fat-tree,
// the torus, an ablation variant and a non-default workload, two loads
// each.
func manyCurvesSpec() sweep.Spec {
	return sweep.Spec{
		Name: "many-curves",
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyBFT, Sizes: []int{16, 64}},
			{Family: sweep.FamilyTorus, Sizes: []int{2}, K: 4},
		},
		MsgFlits: []int{8, 16},
		Variants: []sweep.Variant{{Name: "paper"}, {Name: "no-blocking", NoBlockingCorrection: true}},
		Workloads: []workload.Spec{
			{Name: "steady"},
			{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		},
		Loads: sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
	}
}

// TestRunAsksForCurvesOnce: a dispatched Run asks the fleet for its
// grid's curve context in one /v1/curve request, cold and warm alike —
// the warm Run, every cell a coordinator cache hit, makes no other
// request at all — and the answer is the in-process run's.
func TestRunAsksForCurvesOnce(t *testing.T) {
	spec := manyCurvesSpec()
	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Curves) != 24 {
		t.Fatalf("grid has %d curves, want 24", len(local.Curves))
	}
	fl := fleettest.New(t, fleettest.Schedule{Shards: 2})
	d := faultDispatcher(t, fl, WithCache(sweep.NewCache()))
	for _, pass := range []string{"cold", "warm"} {
		fl.SetPhase(pass)
		res, err := d.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s run: %v", pass, err)
		}
		diffRows(t, local.Rows, res.Rows)
		if got, want := fmt.Sprint(res.Curves), fmt.Sprint(local.Curves); got != want {
			t.Errorf("%s run's curves drifted:\n  local      %s\n  dispatched %s", pass, want, got)
		}
		if n := fl.Count(pass, -1, "curve"); n != 1 {
			t.Errorf("%s run made %d /v1/curve request(s) for %d curves, want 1", pass, n, len(res.Curves))
		}
		if parts := fl.Count(pass, -1, "sweep/part"); pass == "warm" && (res.CacheHits != len(res.Rows) || parts != 0) {
			t.Errorf("warm run: %d/%d hits, %d range request(s); want all hits and none", res.CacheHits, len(res.Rows), parts)
		}
	}
}

// TestCurveVerdictIsFinal: a curve the model rejects fails the Run with
// an error naming the curve after one request — no shard will answer
// differently — before any cell is dispatched. An answer of the wrong
// length is a protocol breach, final too.
func TestCurveVerdictIsFinal(t *testing.T) {
	fl := fleettest.New(t, fleettest.Schedule{Shards: 3})
	d := faultDispatcher(t, fl)
	spec := modelOnlySpec()
	spec.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
	_, err := d.Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "bft-5/s=4") {
		t.Fatalf("Run over a curve the model rejects = %v, want an error naming bft-5/s=4", err)
	}
	if n, parts := fl.Count("", -1, "curve"), fl.Count("", -1, "sweep/part"); n != 1 || parts != 0 {
		t.Errorf("the verdict took %d /v1/curve and %d range request(s), want 1 and 0", n, parts)
	}

	var asked atomic.Int64
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `[{"model":"bft-16/s=4","avg_dist":3,"saturation_load":0.1}]`)
	}))
	t.Cleanup(short.Close)
	d = newDispatcher(t, []string{short.URL})
	if _, err := d.Run(context.Background(), modelOnlySpec()); err == nil || !strings.Contains(err.Error(), "described 1 curve(s) of a 4-curve grid") {
		t.Errorf("Run over a short curve answer = %v, want a protocol breach", err)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("a short curve answer was asked %d time(s), want 1", n)
	}
}

// TestWarmDispatchedRunAllocs budgets a warm dispatched Run end to end:
// a 256-cell, 16-curve grid over two in-process shards, every cell a
// coordinator cache hit, so what is left is the cache pass and the curve
// context. The count is process-wide — client, shards and net/http.
// Measured on a 2-core Xeon: 9.3 allocs per cell when every curve
// was its own /v1/curve round trip (16 per Run), 2.3 with the grid's one
// request.
func TestWarmDispatchedRunAllocs(t *testing.T) {
	const cells = 256
	addrs, _ := newFleet(t, 2)
	spec := sweep.Spec{
		Name:       "warm-allocs",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64, 256, 1024}}},
		MsgFlits:   []int{8, 16, 32, 64},
		Loads:      sweep.LoadSpec{Points: cells / 16, MaxFrac: 0.9},
	}
	d := newDispatcher(t, addrs, WithCache(sweep.NewCache()))
	run := func() {
		res, err := d.Run(context.Background(), spec)
		if err != nil || len(res.Rows) != cells {
			t.Fatalf("run: %v", err)
		}
	}
	run() // cold: fills the coordinator's cache, the shards' memos, the connections
	perCell := testing.AllocsPerRun(10, run) / cells
	t.Logf("%.2f allocs per cell", perCell)
	if perCell > 4 && !race.Enabled {
		t.Errorf("warm dispatched Run: %.2f allocs per cell, budget 4 — is the Run asking for its curves one by one?", perCell)
	}
}
