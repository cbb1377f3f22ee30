package serve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sweep"
)

// TestPartStreamAllocs budgets the fleet's hot line end to end: one
// 256-cell /v1/sweep/part against a warm shard, through
// RemoteBackend.Stream. The count is process-wide — the shard's handler,
// its runner's cache pass and the HTTP machinery on both sides included —
// so the per-cell budget holds the serving side's encode and the
// coordinator's decode together: measured 0.6 per cell on the codec, 2.7
// with the coordinator on the json.Decoder fallback, 3.6 with the shard on
// the json.Encoder — either one leaving the codec fails it.
func TestPartStreamAllocs(t *testing.T) {
	const cells = 256
	srv := newTestServer(t, WithWorkers(1))
	rb, err := eval.NewRemoteBackend([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:       "part-allocs",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256}}},
		MsgFlits:   []int{16, 32},
		Loads:      sweep.LoadSpec{Points: cells / 4, MaxFrac: 0.98},
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(eval.PartRequest{Spec: specJSON, Start: 0, End: cells})
	if err != nil {
		t.Fatal(err)
	}
	stream := func() {
		n := 0
		err := rb.Stream(context.Background(), srv.URL, "/v1/sweep/part", body, 0, cells, func(it *eval.PartItem) error {
			if it.Error != "" || it.Point == nil {
				t.Errorf("cell %d: %+v", it.Index, it)
			}
			n++
			return nil
		})
		if err != nil || n != cells {
			t.Fatalf("stream delivered %d of %d cells: %v", n, cells, err)
		}
	}
	stream() // warm the shard's cache and expansion memo, and the connection
	perCell := testing.AllocsPerRun(10, stream) / cells
	t.Logf("%.2f allocs per cell", perCell)
	if perCell > 1.5 && !race.Enabled {
		t.Errorf("/v1/sweep/part stream: %.2f allocs per cell, budget 1.5 — has a line left the codec for encoding/json?", perCell)
	}
}

// TestEvalRoundTripAllocs budgets one /v1/eval round trip end to end: a
// model-only RemoteBackend.Evaluate against an in-process shard over
// loopback HTTP. The count is process-wide — the client's request and
// answer scan, the shard's body read, decode and answer, the
// instrumentation, and net/http on both sides, which makes nearly all of
// it — so the budget is held from both ends, a few allocations either
// side of the 85 measured with go1.24: a count above it is a regression,
// one below it a gain to record here. It was 98 while the client sent
// through http.Client.Do and allocated its answer, its watchdog closure
// and its retry target per trip, and the shard its body, its header
// value and its status recorder.
func TestEvalRoundTripAllocs(t *testing.T) {
	srv := newTestServer(t, WithWorkers(1))
	rb, err := eval.NewRemoteBackend([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	sc := eval.Scenario{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 256},
		MsgFlits: 32,
		Load:     eval.Load{Frac: true, Value: 0.4},
	}
	probe := func() {
		if _, err := rb.Evaluate(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	probe() // build the shard's model and open the connection
	got := testing.AllocsPerRun(200, probe)
	t.Logf("%.1f allocs per /v1/eval round trip", got)
	if race.Enabled {
		return
	}
	const lo, hi = 82, 88
	if got < lo || got > hi {
		t.Errorf("/v1/eval round trip: %.1f allocs, budget [%d, %d]", got, lo, hi)
	}
}
