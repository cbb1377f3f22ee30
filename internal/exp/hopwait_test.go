package exp

import (
	"context"
	"math"
	"testing"

	"repro/internal/sweep"
	"repro/internal/topology"
)

func TestFatTreeClassOf(t *testing.T) {
	ft := topology.MustFatTree(64)
	counts := map[string]int{}
	for ch := topology.ChannelID(0); ch < topology.ChannelID(ft.NumChannels()); ch++ {
		counts[FatTreeClassOf(ft, ch)]++
	}
	want := map[string]int{
		"up<0,1>":   64, // injection
		"down<1,0>": 64, // ejection
		"up<1,2>":   32, "down<2,1>": 32,
		"up<2,3>": 16, "down<3,2>": 16,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("class %s: %d channels, want %d", name, counts[name], n)
		}
	}
	if counts["?"] != 0 {
		t.Errorf("%d unmapped channels", counts["?"])
	}
}

func TestHopWaitsMatchesModel(t *testing.T) {
	// Moderate load on a mid-size machine: per-class waits are fractions
	// of a cycle to a few cycles; the blended model values must track the
	// measured ones within sampling noise and approximation error.
	rows, err := HopWaits(context.Background(), 64, 16, 0.06, sweep.Budget{Warmup: 2000, Measure: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // 2n classes minus injection for n=3
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.SimSamples < 500 {
			t.Errorf("%s: only %d samples", r.Class, r.SimSamples)
		}
		if math.IsNaN(r.ModelWait) {
			t.Errorf("%s: model wait NaN", r.Class)
			continue
		}
		diff := math.Abs(r.SimWait - r.ModelWait)
		if diff > 0.35+0.5*r.ModelWait {
			t.Errorf("%s: sim wait %.3f vs model %.3f", r.Class, r.SimWait, r.ModelWait)
		}
	}
}

func TestHopWaitsZeroLoad(t *testing.T) {
	rows, err := HopWaits(context.Background(), 16, 8, 0, sweep.Budget{Warmup: 100, Measure: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SimSamples != 0 {
			t.Errorf("%s: samples at zero load", r.Class)
		}
		if !math.IsNaN(r.ModelWait) && r.ModelWait != 0 {
			t.Errorf("%s: nonzero model wait %v at zero load", r.Class, r.ModelWait)
		}
	}
}
