package dispatch

import (
	"context"
	"testing"

	"repro/internal/sweep"
)

// benchSpec is a cheap model-only grid sized so transport overhead, not
// evaluation, dominates.
func benchSpec(points int) sweep.Spec {
	return sweep.Spec{
		Name:       "bench",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
		MsgFlits:   []int{16},
		Loads:      sweep.LoadSpec{Points: points, MaxFrac: 0.9},
	}
}

// BenchmarkDispatchedSweepWarmShards measures the range protocol's
// per-cell cost against warm shards: the servers answer from
// cache, so the number is transport + merge, the quantity the dispatcher
// exists to shrink.
func BenchmarkDispatchedSweepWarmShards(b *testing.B) {
	addrs, _ := newFleet(b, 2)
	spec := benchSpec(500)
	warm, err := New(addrs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(addrs) // fresh coordinator: no client cache, warm shards
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1000 {
			b.Fatalf("rows %d", len(res.Rows))
		}
	}
}
