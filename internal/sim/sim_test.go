package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

func lightConfig(net topology.Network, flits int, load float64, seed uint64) Config {
	return Config{
		Net:           net,
		MsgFlits:      flits,
		Pattern:       traffic.Uniform{},
		Seed:          seed,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	}.FlitLoad(load)
}

func TestRunValidatesConfig(t *testing.T) {
	ft := topology.MustFatTree(16)
	bad := []Config{
		{},
		{Net: ft, MsgFlits: 0, MeasureCycles: 10},
		{Net: ft, MsgFlits: 4, Lambda0: -1, MeasureCycles: 10},
		{Net: ft, MsgFlits: 4, MeasureCycles: 0},
		{Net: ft, MsgFlits: 4, MeasureCycles: 10, WarmupCycles: -1},
		{Net: ft, MsgFlits: 4, MeasureCycles: 10, Policy: UpLinkPolicy(9)},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestZeroLoadProducesNoTraffic(t *testing.T) {
	res, err := Run(context.Background(), lightConfig(topology.MustFatTree(16), 16, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCompleted != 0 || res.TrackedInjected != 0 {
		t.Errorf("zero load delivered traffic: %+v", res)
	}
	if res.Saturated {
		t.Error("zero load cannot saturate")
	}
	if !math.IsNaN(res.LatencyMean) {
		t.Errorf("latency with no samples = %v, want NaN", res.LatencyMean)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.02, 99)
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMean != b.LatencyMean || a.TotalCompleted != b.TotalCompleted ||
		a.ThroughputFlits != b.ThroughputFlits {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	cfg.Seed = 100
	c, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyMean == c.LatencyMean && a.TotalCompleted == c.TotalCompleted {
		t.Error("different seeds produced identical runs")
	}
}

func TestThroughputMatchesOfferBelowSaturation(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      16,
		Seed:          11,
		WarmupCycles:  4000,
		MeasureCycles: 30000,
	}.FlitLoad(0.03)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("saturated at 0.03 flits/cycle: %v", res)
	}
	if math.Abs(res.ThroughputFlits-res.OfferedFlits) > 0.12*res.OfferedFlits {
		t.Errorf("throughput %v deviates from offer %v", res.ThroughputFlits, res.OfferedFlits)
	}
}

func TestSaturationDetectedAtOverload(t *testing.T) {
	// 0.5 flits/cycle/PE is far beyond the bisection bandwidth of the
	// fat-tree top level; queues must blow up and tracking must fail.
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      16,
		Seed:          5,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
		DrainLimit:    2000,
	}.FlitLoad(0.5)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Errorf("overload not flagged: %v", res)
	}
	if res.ThroughputFlits >= 0.5*res.OfferedFlits {
		t.Errorf("delivered %v of offered %v at overload", res.ThroughputFlits, res.OfferedFlits)
	}
	if res.MeanSourceQueue < 1 {
		t.Errorf("source queues should grow at overload, mean = %v", res.MeanSourceQueue)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	prev := 0.0
	for _, load := range []float64{0.01, 0.04, 0.07} {
		cfg := Config{
			Net:           topology.MustFatTree(64),
			MsgFlits:      16,
			Seed:          21,
			WarmupCycles:  3000,
			MeasureCycles: 20000,
		}.FlitLoad(load)
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LatencyMean <= prev {
			t.Errorf("latency %v at load %v not above %v", res.LatencyMean, load, prev)
		}
		prev = res.LatencyMean
	}
}

// The pair-queue policy (one FCFS queue, two servers) must beat the
// fixed-random policy (two independent queues) at the same load, mirroring
// the M/G/2 vs 2×M/G/1 comparison in the model.
func TestPairQueueBeatsRandomFixed(t *testing.T) {
	base := Config{
		Net:           topology.MustFatTree(256),
		MsgFlits:      16,
		Seed:          31,
		WarmupCycles:  4000,
		MeasureCycles: 25000,
	}.FlitLoad(0.035)
	pair, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Policy = RandomFixed
	fixed, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if pair.LatencyMean >= fixed.LatencyMean {
		t.Errorf("pair-queue latency %v should beat random-fixed %v",
			pair.LatencyMean, fixed.LatencyMean)
	}
}

func TestChannelBusyFractionsSane(t *testing.T) {
	net := topology.MustFatTree(64)
	cfg := Config{
		Net:           net,
		MsgFlits:      16,
		Seed:          13,
		WarmupCycles:  2000,
		MeasureCycles: 10000,
	}.FlitLoad(0.03)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChannelBusy) != net.NumChannels() {
		t.Fatalf("ChannelBusy has %d entries", len(res.ChannelBusy))
	}
	for ch, b := range res.ChannelBusy {
		if b < 0 || b > 1 {
			t.Fatalf("channel %d busy fraction %v", ch, b)
		}
	}
	byKind := res.BusyByKind(net)
	inj, ej := busyOf(byKind, topology.KindInjection), busyOf(byKind, topology.KindEjection)
	// Flow conservation: injection and ejection carry the same load.
	if math.Abs(inj-ej) > 0.01 {
		t.Errorf("inj busy %v vs ej busy %v", inj, ej)
	}
	// Injection busy fraction approximates the offered flit load.
	if math.Abs(inj-0.03) > 0.006 {
		t.Errorf("injection busy %v, want ~0.03", inj)
	}
	// Up links at level 1 carry P-up(1) of the traffic spread over N/2
	// links: busy = load * P * N / links / ... sanity: up busier than inj? No —
	// just require nonzero.
	if busyOf(byKind, topology.KindUp) <= 0 {
		t.Error("up links never busy under load")
	}
}

// busyOf returns kind k's entry of a BusyByKind list, NaN if it has none.
func busyOf(byKind []KindBusy, k topology.ChannelKind) float64 {
	for _, kb := range byKind {
		if kb.Kind == k {
			return kb.Busy
		}
	}
	return math.NaN()
}

func TestStringersAndHelpers(t *testing.T) {
	if PairQueue.String() != "pairqueue" || RandomFixed.String() != "randomfixed" {
		t.Error("policy names")
	}
	if UpLinkPolicy(7).String() == "" {
		t.Error("unknown policy name empty")
	}
	cfg := Config{MsgFlits: 16}.FlitLoad(0.032)
	if math.Abs(cfg.Lambda0-0.002) > 1e-15 {
		t.Errorf("FlitLoad conversion: %v", cfg.Lambda0)
	}
	res := Result{Name: "x", LatencyMean: 1, OfferedFlits: 0.1}
	if res.String() == "" {
		t.Error("empty result string")
	}
}

func TestHotspotTrafficRuns(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      8,
		Pattern:       traffic.Hotspot{Hot: 5, Fraction: 0.3},
		Seed:          17,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
	}.FlitLoad(0.02)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted == 0 {
		t.Error("no messages completed under hotspot traffic")
	}
	// The hot PE's ejection channel must be busier than average.
	var hotBusy, sumBusy float64
	var nEj int
	for p := 0; p < cfg.Net.NumProcessors(); p++ {
		busy := res.ChannelBusy[cfg.Net.Tables().Ejection(p)]
		sumBusy += busy
		nEj++
		if p == 5 {
			hotBusy = busy
		}
	}
	if hotBusy <= sumBusy/float64(nEj) {
		t.Errorf("hot ejection busy %v not above average %v", hotBusy, sumBusy/float64(nEj))
	}
}

func TestDeadlockWatchdogDoesNotFireOnIdle(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(16),
		MsgFlits:      8,
		Lambda0:       0,
		Seed:          1,
		WarmupCycles:  0,
		MeasureCycles: 60000, // longer than the watchdog timeout
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("idle run tripped the watchdog: %v", err)
	}
}

func TestErrDeadlockIsMatchable(t *testing.T) {
	err := ErrDeadlock
	if !errors.Is(err, ErrDeadlock) {
		t.Error("ErrDeadlock identity")
	}
}
