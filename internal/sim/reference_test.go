package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// sameF64 compares floats bit-for-bit, treating NaN as equal to NaN (the
// percentile fields are NaN without a histogram, where reflect.DeepEqual
// and == both mislead).
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// mustMatch asserts bit-identical Results field by field.
func mustMatch(t *testing.T, name string, got, want *Result) {
	t.Helper()
	type f struct {
		name      string
		got, want float64
	}
	fields := []f{
		{"LatencyMean", got.LatencyMean, want.LatencyMean},
		{"LatencyCI95", got.LatencyCI95, want.LatencyCI95},
		{"LatencyMin", got.LatencyMin, want.LatencyMin},
		{"LatencyMax", got.LatencyMax, want.LatencyMax},
		{"WaitInjMean", got.WaitInjMean, want.WaitInjMean},
		{"ServiceInjMean", got.ServiceInjMean, want.ServiceInjMean},
		{"ThroughputFlits", got.ThroughputFlits, want.ThroughputFlits},
		{"OfferedFlits", got.OfferedFlits, want.OfferedFlits},
		{"MeanSourceQueue", got.MeanSourceQueue, want.MeanSourceQueue},
		{"LatencyP50", got.LatencyP50, want.LatencyP50},
		{"LatencyP95", got.LatencyP95, want.LatencyP95},
		{"LatencyP99", got.LatencyP99, want.LatencyP99},
		{"Precision", got.Precision, want.Precision},
	}
	for _, x := range fields {
		if !sameF64(x.got, x.want) {
			t.Errorf("%s: %s = %v, reference %v", name, x.name, x.got, x.want)
		}
	}
	if got.TrackedInjected != want.TrackedInjected ||
		got.TrackedCompleted != want.TrackedCompleted ||
		got.TotalCompleted != want.TotalCompleted ||
		got.Cycles != want.Cycles ||
		got.Saturated != want.Saturated ||
		got.Replicas != want.Replicas ||
		got.MeasuredCycles != want.MeasuredCycles ||
		got.EarlyStopped != want.EarlyStopped ||
		got.Name != want.Name {
		t.Errorf("%s: scalar fields diverged:\n got %+v\nwant %+v", name, got, want)
	}
	if len(got.ChannelBusy) != len(want.ChannelBusy) {
		t.Fatalf("%s: ChannelBusy length %d vs %d", name, len(got.ChannelBusy), len(want.ChannelBusy))
	}
	for ch := range got.ChannelBusy {
		if !sameF64(got.ChannelBusy[ch], want.ChannelBusy[ch]) {
			t.Errorf("%s: ChannelBusy[%d] = %v, reference %v",
				name, ch, got.ChannelBusy[ch], want.ChannelBusy[ch])
			break
		}
	}
}

// simCase is one named simulator configuration of a test matrix.
type simCase struct {
	name string
	cfg  Config
	opts []Option
}

// referenceFamilies are the figure3/table2 scenario families the event
// engine is pinned on: fat trees and hypercubes over a range of loads,
// both policies, with and without the histogram, saturated and idle.
func referenceFamilies() []simCase {
	return []simCase{
		{name: "bft64-s16-light", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
			WarmupCycles: 2000, MeasureCycles: 8000,
		}.FlitLoad(0.02)},
		{name: "bft64-s16-heavy", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
			WarmupCycles: 2000, MeasureCycles: 8000,
		}.FlitLoad(0.06)},
		{name: "bft256-s32", cfg: Config{
			Net: topology.MustFatTree(256), MsgFlits: 32, Seed: 7,
			WarmupCycles: 1500, MeasureCycles: 6000,
		}.FlitLoad(0.03)},
		{name: "bft64-randomfixed", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 11,
			WarmupCycles: 1000, MeasureCycles: 6000, Policy: RandomFixed,
		}.FlitLoad(0.04)},
		{name: "hcube6-s16", cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 16, Seed: 5,
			WarmupCycles: 1500, MeasureCycles: 6000,
		}.FlitLoad(0.05)},
		{name: "bft64-histogram", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 8, Seed: 23,
			WarmupCycles: 1000, MeasureCycles: 8000, LatencyHistogram: true,
		}.FlitLoad(0.03)},
		{name: "bft64-saturated", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 2000,
		}.FlitLoad(0.5)},
		{name: "bft16-hotspot", cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 9,
			Pattern:      traffic.Hotspot{Hot: 3, Fraction: 0.25},
			WarmupCycles: 800, MeasureCycles: 5000,
		}.FlitLoad(0.02)},
		{name: "bft16-near-idle", cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 31,
			WarmupCycles: 1000, MeasureCycles: 50000, Lambda0: 0.0001,
		}},
		{name: "zero-load", cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 1,
			WarmupCycles: 100, MeasureCycles: 2000, Lambda0: 0,
		}},
		// Worms shorter than their path release tail channels while the
		// head is still routing and have no inject-only drain cycles.
		{name: "bft256-s3-short", cfg: Config{
			Net: topology.MustFatTree(256), MsgFlits: 3, Seed: 6,
			WarmupCycles: 500, MeasureCycles: 4000,
		}.FlitLoad(0.03)},
		{name: "hcube6-s2-short", cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 2, Seed: 13,
			WarmupCycles: 500, MeasureCycles: 4000,
		}.FlitLoad(0.05)},
		// One flit: the head's ejection is the whole delivery; nothing drains.
		{name: "bft64-s1", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 1, Seed: 2,
			WarmupCycles: 500, MeasureCycles: 5000,
		}.FlitLoad(0.02)},
		{name: "hcube6-randomfixed", cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 16, Seed: 19,
			WarmupCycles: 1000, MeasureCycles: 5000, Policy: RandomFixed,
		}.FlitLoad(0.05)},
		// The paper's machine with long worms at 90 % of the model's
		// saturation load (0.0391 flits/cycle/PE): most of a worm's drain is
		// inject-only. Short windows — the dense reference is ~14× slower.
		{name: "bft1024-s64-90pct", cfg: Config{
			Net: topology.MustFatTree(1024), MsgFlits: 64, Seed: 1,
			WarmupCycles: 1000, MeasureCycles: 4000,
		}.FlitLoad(0.0352)},
		// Saturated, and cut off at hardEnd with worms mid-drain: well past
		// the window, and so soon after it that worms whose heads arrived
		// inside it have not released a channel yet.
		{name: "bft64-saturated-hardend", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 300,
		}.FlitLoad(0.5)},
		{name: "bft64-saturated-cutoff", cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 32, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 4,
		}.FlitLoad(0.5)},
	}
}

// TestEventEngineMatchesReference is the determinism pin of the rewrite:
// on the figure3/table2 scenario families (fat trees and hypercubes over a
// range of loads, both policies, with and without the histogram), the
// event-driven engine must be bit-identical to the pre-rewrite dense
// engine preserved in RunReference — every float, every counter.
func TestEventEngineMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, tc := range referenceFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunReference(ctx, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(ctx, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustMatch(t, tc.name, got, want)

			// Early stopping disabled explicitly must also be identical.
			off, err := Run(ctx, tc.cfg, WithTermination(Termination{}), WithReplicas(1))
			if err != nil {
				t.Fatal(err)
			}
			mustMatch(t, tc.name+"/term-off", off, want)
		})
	}
}

// TestSeedDerivationGolden pins the seed-derivation map: the salts, the
// first draws of each derived stream, and the replica seed schedule. Any
// change here invalidates stored sweep results and replica independence —
// it must be a deliberate, breaking decision, not a refactoring accident.
func TestSeedDerivationGolden(t *testing.T) {
	if streamShuffle != 0xa11ce {
		t.Errorf("streamShuffle = %#x, want 0xa11ce", streamShuffle)
	}
	if streamDest(0) != 1 || streamDest(63) != 64 {
		t.Errorf("streamDest: got %d, %d; want 1, 64", streamDest(0), streamDest(63))
	}
	if streamArrival(0) != 1_000_003 || streamArrival(63) != 1_000_066 {
		t.Errorf("streamArrival: got %d, %d", streamArrival(0), streamArrival(63))
	}

	// First outputs of each stream for master seed 42, captured from the
	// pre-rewrite engine. These are load-bearing constants: they pin the
	// mapping from Config.Seed to every random stream in a run.
	master := traffic.NewRNG(42)
	golden := []struct {
		name string
		rng  *traffic.RNG
		want uint64
	}{
		{"shuffle", master.Split(streamShuffle), 0x13e629e9b0b27c97},
		{"dest(0)", master.Split(streamDest(0)), 0xdaa73d3e72048932},
		{"dest(1)", master.Split(streamDest(1)), 0x0baa8a541a895b98},
		{"arrival(0)", master.Split(streamArrival(0)), 0xe1edf91ad8b1bcf6},
		{"arrival(1)", master.Split(streamArrival(1)), 0x9bc651fc0851467c},
	}
	for _, g := range golden {
		if got := g.rng.Uint64(); got != g.want {
			t.Errorf("first draw of %s stream = %#x, want %#x", g.name, got, g.want)
		}
	}

	// Replica seeds: identity at r=0, fixed splitmix schedule above.
	if ReplicaSeed(42, 0) != 42 {
		t.Errorf("ReplicaSeed(42, 0) = %d, want 42", ReplicaSeed(42, 0))
	}
	if got, want := ReplicaSeed(42, 1), uint64(0xbdd732262feb6e95); got != want {
		t.Errorf("ReplicaSeed(42, 1) = %#x, want %#x", got, want)
	}
	if got, want := ReplicaSeed(42, 2), uint64(0x28efe333b266f103); got != want {
		t.Errorf("ReplicaSeed(42, 2) = %#x, want %#x", got, want)
	}
	// Distinct across replicas and disjoint from the per-load-point seed
	// lattice (base + index*7919) eval uses on the same base seed.
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[42+uint64(i)*7919] = true
	}
	for r := 0; r < 64; r++ {
		s := ReplicaSeed(42, r)
		if r > 0 && seen[s] {
			t.Errorf("ReplicaSeed(42, %d) = %d collides", r, s)
		}
		seen[s] = true
	}
}

// TestReplicasDeterministicAndMerged pins the replica machinery: repeated
// runs are bit-identical (no scheduling dependence), counts are summed
// over replicas, and the pooled CI tightens against a single replica.
func TestReplicasDeterministicAndMerged(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
		WarmupCycles: 1000, MeasureCycles: 4000,
	}.FlitLoad(0.03)

	one, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(ctx, cfg, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, cfg, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "replicas-rerun", b, a)

	if a.Replicas != 3 {
		t.Errorf("Replicas = %d, want 3", a.Replicas)
	}
	if a.MeasuredCycles != 3*cfg.MeasureCycles {
		t.Errorf("MeasuredCycles = %d, want %d", a.MeasuredCycles, 3*cfg.MeasureCycles)
	}
	if a.TrackedInjected <= one.TrackedInjected {
		t.Errorf("merged TrackedInjected %d not above single replica %d",
			a.TrackedInjected, one.TrackedInjected)
	}
	if !(a.LatencyCI95 < one.LatencyCI95) {
		t.Errorf("pooled CI %v not tighter than single-replica %v", a.LatencyCI95, one.LatencyCI95)
	}
	// The merged mean is a pooled estimate of the same quantity.
	if math.Abs(a.LatencyMean-one.LatencyMean) > 0.1*one.LatencyMean {
		t.Errorf("merged mean %v far from single-replica %v", a.LatencyMean, one.LatencyMean)
	}
	// Replica 0 is the base seed: a single-replica result must be embedded
	// in the merge's totals (Cycles sums over replicas).
	if a.Cycles <= one.Cycles {
		t.Errorf("summed Cycles %d not above single replica %d", a.Cycles, one.Cycles)
	}
}
