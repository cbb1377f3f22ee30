package sim

import (
	"context"

	"math"
	"testing"

	"repro/internal/topology"
)

func TestLatencyPercentiles(t *testing.T) {
	cfg := Config{
		Net:              topology.MustFatTree(64),
		MsgFlits:         16,
		Seed:             19,
		WarmupCycles:     2000,
		MeasureCycles:    20000,
		LatencyHistogram: true,
	}.FlitLoad(0.08)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.LatencyP50) || math.IsNaN(res.LatencyP95) || math.IsNaN(res.LatencyP99) {
		t.Fatal("percentiles not filled")
	}
	// Percentile ordering and consistency with the extrema.
	if !(res.LatencyMin <= res.LatencyP50 && res.LatencyP50 <= res.LatencyP95 &&
		res.LatencyP95 <= res.LatencyP99 && res.LatencyP99 <= res.LatencyMax+1) {
		t.Errorf("percentile ordering violated: min=%v p50=%v p95=%v p99=%v max=%v",
			res.LatencyMin, res.LatencyP50, res.LatencyP95, res.LatencyP99, res.LatencyMax)
	}
	// The median sits near (in skewed queueing traffic: below) the mean.
	if math.Abs(res.LatencyP50-res.LatencyMean) > 0.3*res.LatencyMean {
		t.Errorf("p50 %v far from mean %v", res.LatencyP50, res.LatencyMean)
	}
	// Tail must be visibly above the median at this load.
	if res.LatencyP99 <= res.LatencyP50 {
		t.Error("p99 not above p50 under contention")
	}
}

func TestLatencyPercentilesDisabledByDefault(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(16),
		MsgFlits:      8,
		Seed:          3,
		WarmupCycles:  200,
		MeasureCycles: 2000,
	}.FlitLoad(0.02)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.LatencyP50) {
		t.Errorf("p50 = %v without opting in, want NaN", res.LatencyP50)
	}
}
