package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Single-flit messages exercise the corner where a worm's tail releases a
// channel on the very shift after acquisition.
func TestSingleFlitMessages(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      1,
		Seed:          2,
		WarmupCycles:  500,
		MeasureCycles: 5000,
	}.FlitLoad(0.02)
	e := mustEngine(t, cfg)
	e.debugChecks = true
	res, err := e.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted == 0 {
		t.Fatal("no single-flit messages completed")
	}
	// Latency of a 1-flit worm is its hop count (+ queueing + the
	// sub-cycle offset): mean ≈ D̄.
	want := cfg.Net.AvgDistance()
	if math.Abs(res.LatencyMean-want) > 2.5 {
		t.Errorf("1-flit latency %v, want ~%v", res.LatencyMean, want)
	}
}

// Worms shorter than the network diameter stretch out and release their
// tail channels while the head is still routing — the paper's long-worm
// assumption does not hold, but the simulator must still conserve flits
// and deliver everything (the model's assumption is about its own
// accuracy, not about physics).
func TestShortWormsBelowDiameter(t *testing.T) {
	// N=256 fat-tree: diameter 2*log4(256) = 8 channels; s=3 << 8.
	cfg := Config{
		Net:           topology.MustFatTree(256),
		MsgFlits:      3,
		Seed:          6,
		WarmupCycles:  500,
		MeasureCycles: 4000,
	}.FlitLoad(0.03)
	e := mustEngine(t, cfg)
	e.debugChecks = true
	res, err := e.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted < 100 {
		t.Fatalf("only %d short worms completed", res.TrackedCompleted)
	}
	if res.Saturated {
		t.Error("light load with short worms reported saturated")
	}
}

// The measured injection wait at very light load reflects only the
// eligibility discretisation: arrivals wait for the next cycle boundary,
// a mean of ~0.5 cycles.
func TestInjectionWaitDiscretisation(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      16,
		Seed:          14,
		WarmupCycles:  500,
		MeasureCycles: 60000,
	}
	cfg.Lambda0 = 0.00005
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted < 20 {
		t.Fatalf("too few samples: %d", res.TrackedCompleted)
	}
	if res.WaitInjMean < 0 || res.WaitInjMean > 1.2 {
		t.Errorf("unloaded injection wait %v, want ~0.5 (discretisation only)", res.WaitInjMean)
	}
}

// A deterministic permutation pattern (bit complement) must run and load
// the network unevenly relative to uniform traffic.
func TestBitComplementPattern(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      8,
		Pattern:       traffic.BitComplement{},
		Seed:          4,
		WarmupCycles:  500,
		MeasureCycles: 6000,
	}.FlitLoad(0.02)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted == 0 {
		t.Fatal("no messages under bit-complement")
	}
	// Bit complement on the fat-tree sends everything through the top
	// level: up-link busy fractions must exceed uniform's at equal load.
	uniform, err := Run(context.Background(), Config{
		Net:           topology.MustFatTree(64),
		MsgFlits:      8,
		Seed:          4,
		WarmupCycles:  500,
		MeasureCycles: 6000,
	}.FlitLoad(0.02))
	if err != nil {
		t.Fatal(err)
	}
	bcUp := busyOf(res.BusyByKind(cfg.Net), topology.KindUp)
	unUp := busyOf(uniform.BusyByKind(cfg.Net), topology.KindUp)
	if bcUp <= unUp {
		t.Errorf("bit-complement up busy %v should exceed uniform %v", bcUp, unUp)
	}
}

// The smallest machine (one switch) at a busy but stable load: injection
// service stays close to s plus a modest ejection-contention wait, and
// the run must not be flagged saturated.
func TestSmallestMachineBusyButStable(t *testing.T) {
	cfg := Config{
		Net:           topology.MustFatTree(4),
		MsgFlits:      4,
		Seed:          8,
		WarmupCycles:  500,
		MeasureCycles: 8000,
		DrainLimit:    8000,
	}
	cfg.Lambda0 = 0.08 // ejection rho = 0.32; x̄01 ≈ 4.6, rho_inj ≈ 0.37
	e := mustEngine(t, cfg)
	e.debugChecks = true
	res, err := e.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("stable load on N=4 reported saturated: %v", res)
	}
	if res.ServiceInjMean < 4 || res.ServiceInjMean > 6.5 {
		t.Errorf("x̄01 = %v, want in [4, 6.5]", res.ServiceInjMean)
	}
}

func TestGroupPartitionRoundTrip(t *testing.T) {
	for _, net := range []topology.Network{
		topology.MustFatTree(256),
		topology.MustHypercube(6),
	} {
		tab := net.Tables()
		seen := make(map[topology.ChannelID]int)
		for g := topology.GroupID(0); int(g) < net.NumChannels(); g++ {
			if tab.Lead[g] != 0 {
				continue // groups are named by their first channel
			}
			lo, hi := tab.Group(g)
			for ch := lo; ch < hi; ch++ {
				seen[ch]++
				if lead := topology.ChannelID(tab.Lead[ch]); ch-lead != g {
					t.Errorf("%s: channel %d leads by %d, in group %d",
						net.Name(), ch, lead, g)
				}
			}
		}
		if len(seen) != net.NumChannels() {
			t.Errorf("%s: %d channels in groups, want %d", net.Name(), len(seen), net.NumChannels())
		}
		for ch, n := range seen {
			if n != 1 {
				t.Errorf("%s: channel %d in %d groups", net.Name(), ch, n)
			}
		}
	}
}

// A worm far longer than its path spends most of its drain with nothing
// moving but flit counters. That is still progress: the watchdog must not
// mistake a lone long worm for a deadlock, even one whose drain outlasts
// the watchdog's timeout. The worm is the only arrival of a replayed
// trace, so nothing else advances while it drains.
func TestLongDrainIsProgress(t *testing.T) {
	const flits = progressTimeout + 10000
	cfg := Config{
		Net:           topology.MustFatTree(16),
		MsgFlits:      flits,
		Seed:          5,
		WarmupCycles:  0,
		MeasureCycles: 1000,
		DrainLimit:    2 * progressTimeout,
		Trace: &workload.Trace{
			Header: workload.TraceHeader{Size: 16, MsgFlits: flits},
			Events: []workload.TraceEvent{{Src: 0, Dst: 15, Cycle: 0.5, MsgFlits: flits}},
		},
	}
	e := mustEngine(t, cfg)
	e.debugChecks = true
	res, err := e.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted == 0 {
		t.Fatal("no message completed; the case exercises nothing")
	}
}
