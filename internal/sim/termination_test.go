package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/topology"
)

// TestTerminationStopsEarly is the happy path: at a stable load with a
// generous measurement window, the CI-width rule must close the window
// early and still land on a latency estimate consistent with the full run.
func TestTerminationStopsEarly(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
		WarmupCycles: 2000, MeasureCycles: 60000,
	}.FlitLoad(0.03)

	full, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	early, err := Run(ctx, cfg, WithTermination(DefaultTermination))
	if err != nil {
		t.Fatal(err)
	}
	if !early.EarlyStopped {
		t.Fatalf("rule did not fire over %d cycles (precision %v)", cfg.MeasureCycles, early.Precision)
	}
	if early.MeasuredCycles >= cfg.MeasureCycles {
		t.Errorf("MeasuredCycles = %d, want < %d", early.MeasuredCycles, cfg.MeasureCycles)
	}
	if early.Cycles >= full.Cycles {
		t.Errorf("early-stopped run simulated %d cycles, full run %d", early.Cycles, full.Cycles)
	}
	// The achieved precision must honor the request.
	if !(early.Precision <= DefaultTermination.RelHalfWidth) {
		t.Errorf("achieved precision %v exceeds requested %v", early.Precision, DefaultTermination.RelHalfWidth)
	}
	// And the estimate must agree with the full-window estimate well
	// within their combined uncertainty.
	diff := math.Abs(early.LatencyMean - full.LatencyMean)
	band := 2 * (early.LatencyCI95 + full.LatencyCI95)
	if diff > band {
		t.Errorf("early mean %v vs full mean %v differ by %v (band %v)",
			early.LatencyMean, full.LatencyMean, diff, band)
	}
	if early.Saturated {
		t.Error("stable load flagged saturated under early stopping")
	}
}

// TestTerminationZeroVariance: with a degenerate zero-variance latency
// series the half-width is exactly zero, and the rule must fire at the
// first check after termMinBatches — not divide by zero or wait forever.
func TestTerminationZeroVariance(t *testing.T) {
	cfg := Config{
		Net: topology.MustFatTree(16), MsgFlits: 4, Seed: 1,
		WarmupCycles: 0, MeasureCycles: 1000,
	}
	e := mustEngine(t, cfg)
	e.term = Termination{RelHalfWidth: 0.05}
	for i := 0; i < termMinBatches*batchSize; i++ {
		e.lat.Add(21.5) // constant series: batch means all equal
	}
	if hw := e.lat.HalfWidth(0.95); hw != 0 {
		t.Fatalf("zero-variance half-width = %v, want 0", hw)
	}
	if !e.ciConverged() {
		t.Error("rule must fire on a zero-variance series past termMinBatches")
	}
}

// TestTerminationTooFewObservations: with fewer observations than one
// batch there is no batch statistic at all; the rule must hold off.
func TestTerminationTooFewObservations(t *testing.T) {
	cfg := Config{
		Net: topology.MustFatTree(16), MsgFlits: 4, Seed: 1,
		WarmupCycles: 0, MeasureCycles: 1000, // default batch size 64
	}
	e := mustEngine(t, cfg)
	e.term = Termination{RelHalfWidth: 0.5}
	for i := 0; i < 63; i++ {
		e.lat.Add(10 + float64(i%3))
	}
	if e.lat.Batches() != 0 {
		t.Fatalf("unexpected completed batches: %d", e.lat.Batches())
	}
	if e.ciConverged() {
		t.Error("rule fired with zero completed batches")
	}
	// One full batch is still below termMinBatches.
	e.lat.Add(10)
	if e.ciConverged() {
		t.Error("rule fired below termMinBatches")
	}
}

// TestTerminationNeverFiresAtSaturation: an overloaded run keeps its
// latency series drifting, so the rule must not fabricate convergence and
// the saturation verdict must survive the early-stopping code path.
func TestTerminationSaturatedStillDetected(t *testing.T) {
	cfg := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 5,
		WarmupCycles: 1000, MeasureCycles: 4000, DrainLimit: 2000,
	}.FlitLoad(0.5)
	res, err := Run(context.Background(), cfg, WithTermination(DefaultTermination))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Errorf("overload not flagged under termination: %+v", res)
	}
}

// TestCancellationMidReplicaNoLeaks: cancelling a multi-replica run must
// abort every replica goroutine promptly and leave none behind.
func TestCancellationMidReplicaNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 2,
		WarmupCycles: 1000, MeasureCycles: 200_000_000,
	}.FlitLoad(0.02)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, cfg, WithReplicas(4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// Run waits for its replicas before returning, so the goroutine count
	// must come back down; allow the runtime a moment to settle.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSteadyStateAllocs pins the allocation-free steady state: once the
// pooled containers (worm slots, path buffers, queues, the arrival
// calendar) have reached their working size, quadrupling the measurement
// window must not grow the per-run allocation count materially.
func TestSteadyStateAllocs(t *testing.T) {
	base := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
		WarmupCycles: 2000,
	}.FlitLoad(0.03)
	measure := func(cycles int) float64 {
		cfg := base
		cfg.MeasureCycles = cycles
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(40000)
	long := measure(160000)
	// 120k extra cycles push ~9000 extra worms through the machine; a
	// single allocation per worm or per cycle would show up as thousands.
	if delta := long - short; delta > 100 {
		t.Errorf("allocation delta %v over 120k extra cycles; steady state is allocating", delta)
	}
}

// TestWarmRunAllocs pins what building and reusing an engine costs on the
// paper's largest configuration: a run on an engine the internal
// constructor builds stays in the hundreds of allocations (slabs, not
// per-worm or per-source objects), and a single-replica Run on a parked
// engine whose Result the caller drops allocates its ChannelBusy slice
// only (Run inlines, so the Result itself is on the caller's stack), and
// nothing at all under WithoutChannelBusy.
func TestWarmRunAllocs(t *testing.T) {
	cfg := Config{
		Net: topology.MustFatTree(1024), MsgFlits: 32, Seed: 42,
		WarmupCycles: 1000, MeasureCycles: 4000,
	}.FlitLoad(0.04)
	ctx := context.Background()
	cold := testing.AllocsPerRun(2, func() {
		if _, err := freshRun(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun counts the whole process, and every collection wakes
	// runtime housekeeping that allocates a few objects on a goroutine of
	// its own (the unique package's map cleanup). Ten runs keep one such
	// burst below a whole allocation per run, while an allocation Run made
	// every time still shows in full.
	warm := testing.AllocsPerRun(10, func() {
		if _, err := Run(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	bare := testing.AllocsPerRun(10, func() {
		if _, err := Run(ctx, cfg, WithoutChannelBusy()); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 500 {
		t.Errorf("a run on a new engine allocates %v times, want <= 500", cold)
	}
	if warm > 1 {
		t.Errorf("a Run on a parked engine allocates %v times, want <= 1 (ChannelBusy)", warm)
	}
	if bare > 0 {
		t.Errorf("a Run on a parked engine WithoutChannelBusy allocates %v times, want 0", bare)
	}
	t.Logf("bft-1024 s=32: cold %v allocs/run, warm %v, without ChannelBusy %v", cold, warm, bare)
}

// TestEarlyStopPinned pins early-stopped runs bit for bit. The pinned
// families' digests (TestResultDigestsPinned) are of fixed-window runs, so
// they cannot see how the engine's accounting meets a measurement window
// that shrinks under it; these values were captured from the engine as it
// stood before the flat-table rewrite and must never move within a
// simulator epoch.
func TestEarlyStopPinned(t *testing.T) {
	bft64 := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
		WarmupCycles: 2000, MeasureCycles: 60000,
	}
	long := bft64
	long.MsgFlits = 32 // run at 80 % of the model's saturation load, 0.160 flits/cycle/PE
	for _, tc := range []struct {
		name string
		cfg  Config
		opts []Option
		// Float64bits of LatencyMean, LatencyCI95, ThroughputFlits,
		// MeanSourceQueue; then Cycles, MeasuredCycles, TotalCompleted.
		bits   [4]uint64
		counts [3]int
	}{
		{name: "light", cfg: bft64.FlitLoad(0.01),
			opts:   []Option{WithTermination(DefaultTermination)},
			bits:   [4]uint64{0x40354284b20eb1be, 0x3fca7ddec4440597, 0x3f83b3b13b13b13b, 0x3f44dc8dc8dc8dc9},
			counts: [3]int{18651, 16640, 727}},
		{name: "80pct", cfg: long.FlitLoad(0.128),
			opts:   []Option{WithTermination(DefaultTermination)},
			bits:   [4]uint64{0x404ebf73196e5cfc, 0x400845f7c84542aa, 0x3fc0323555555555, 0x3fa17f8000000000},
			counts: [3]int{14510, 12288, 3675}},
		{name: "replicas-2", cfg: bft64.FlitLoad(0.08),
			opts:   []Option{WithTermination(DefaultTermination), WithReplicas(2)},
			bits:   [4]uint64{0x403a27480245fd06, 0x3fe92af272bd7a16, 0x3fb473c3c3c3c3c4, 0x3f87eb4b4b4b4b4b},
			counts: [3]int{8431, 4352, 2666}},
	} {
		res, err := Run(context.Background(), tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.EarlyStopped {
			t.Errorf("%s: the rule did not fire; the case pins nothing", tc.name)
		}
		bits := [4]uint64{
			math.Float64bits(res.LatencyMean), math.Float64bits(res.LatencyCI95),
			math.Float64bits(res.ThroughputFlits), math.Float64bits(res.MeanSourceQueue),
		}
		counts := [3]int{res.Cycles, res.MeasuredCycles, res.TotalCompleted}
		if bits != tc.bits || counts != tc.counts {
			t.Errorf("%s: got bits %#x counts %v, pinned bits %#x counts %v",
				tc.name, bits, counts, tc.bits, tc.counts)
		}
	}
}
