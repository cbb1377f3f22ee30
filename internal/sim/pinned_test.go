package sim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// hotspot is the single-target hotspot pattern the bft16-hotspot digest
// was pinned with. traffic.MultiHotspot{Hot: []int{hot}} has the same
// destination distribution but not the same stream: it draws one more
// Uint64 (its Intn over the hot set) per hot message.
type hotspot struct {
	hot      int
	fraction float64
}

func (h hotspot) Dest(src, n int, rng *traffic.RNG) int {
	if h.fraction > 0 && rng.Float64() < h.fraction && h.hot != src {
		return h.hot
	}
	return traffic.Uniform{}.Dest(src, n, rng)
}

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
	name   string
	cfg    Config
	opts   []Option
	digest uint64 // pinnedFamilies only: resultDigest of the plain run
}

// pinnedFamilies are the figure3/table2 scenario families the engine is
// pinned on: fat trees and hypercubes over a range of loads, both
// policies, with and without the histogram, saturated and idle. Each
// carries the digest of its Result at the current simulator epoch. The
// digests were captured when the dense pre-rewrite engine still stood
// beside this one and both gave them, bit for bit.
func pinnedFamilies() []simCase {
	return []simCase{
		{name: "bft64-s16-light", digest: 0x9a73c4009cc822ed, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
			WarmupCycles: 2000, MeasureCycles: 8000,
		}.FlitLoad(0.02)},
		{name: "bft64-s16-heavy", digest: 0x531463bb22737af8, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
			WarmupCycles: 2000, MeasureCycles: 8000,
		}.FlitLoad(0.06)},
		{name: "bft256-s32", digest: 0x3c86d3b3125f7f85, cfg: Config{
			Net: topology.MustFatTree(256), MsgFlits: 32, Seed: 7,
			WarmupCycles: 1500, MeasureCycles: 6000,
		}.FlitLoad(0.03)},
		{name: "bft64-randomfixed", digest: 0x91cfdfbc8b060cbc, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 11,
			WarmupCycles: 1000, MeasureCycles: 6000, Policy: RandomFixed,
		}.FlitLoad(0.04)},
		{name: "hcube6-s16", digest: 0x04bbab7dea5d7cc2, cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 16, Seed: 5,
			WarmupCycles: 1500, MeasureCycles: 6000,
		}.FlitLoad(0.05)},
		{name: "bft64-histogram", digest: 0x977e17a36f9d8a19, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 8, Seed: 23,
			WarmupCycles: 1000, MeasureCycles: 8000, LatencyHistogram: true,
		}.FlitLoad(0.03)},
		{name: "bft64-saturated", digest: 0x0e069877a6d617a9, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 2000,
		}.FlitLoad(0.5)},
		{name: "bft16-hotspot", digest: 0x3a1eb015c6cbf245, cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 9,
			Pattern:      hotspot{hot: 3, fraction: 0.25},
			WarmupCycles: 800, MeasureCycles: 5000,
		}.FlitLoad(0.02)},
		{name: "bft16-near-idle", digest: 0x6628c6a4f10e7345, cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 31,
			WarmupCycles: 1000, MeasureCycles: 50000, Lambda0: 0.0001,
		}},
		{name: "zero-load", digest: 0xe47dd71236797f81, cfg: Config{
			Net: topology.MustFatTree(16), MsgFlits: 8, Seed: 1,
			WarmupCycles: 100, MeasureCycles: 2000, Lambda0: 0,
		}},
		// Worms shorter than their path release tail channels while the
		// head is still routing and have no inject-only drain cycles.
		{name: "bft256-s3-short", digest: 0x0d0a36a28eec732c, cfg: Config{
			Net: topology.MustFatTree(256), MsgFlits: 3, Seed: 6,
			WarmupCycles: 500, MeasureCycles: 4000,
		}.FlitLoad(0.03)},
		{name: "hcube6-s2-short", digest: 0x393faea4573f8e23, cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 2, Seed: 13,
			WarmupCycles: 500, MeasureCycles: 4000,
		}.FlitLoad(0.05)},
		// One flit: the head's ejection is the whole delivery; nothing drains.
		{name: "bft64-s1", digest: 0x48d63e9dae026f65, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 1, Seed: 2,
			WarmupCycles: 500, MeasureCycles: 5000,
		}.FlitLoad(0.02)},
		{name: "hcube6-randomfixed", digest: 0xdee7d270fde874d9, cfg: Config{
			Net: topology.MustHypercube(6), MsgFlits: 16, Seed: 19,
			WarmupCycles: 1000, MeasureCycles: 5000, Policy: RandomFixed,
		}.FlitLoad(0.05)},
		// The paper's machine with long worms at 90 % of the model's
		// saturation load (0.0391 flits/cycle/PE): most of a worm's drain is
		// inject-only.
		{name: "bft1024-s64-90pct", digest: 0x9ccb2b126bd93e3c, cfg: Config{
			Net: topology.MustFatTree(1024), MsgFlits: 64, Seed: 1,
			WarmupCycles: 1000, MeasureCycles: 4000,
		}.FlitLoad(0.0352)},
		// Saturated, and cut off at hardEnd with worms mid-drain: well past
		// the window, and so soon after it that worms whose heads arrived
		// inside it have not released a channel yet.
		{name: "bft64-saturated-hardend", digest: 0x6969f8a87608baa8, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 300,
		}.FlitLoad(0.5)},
		{name: "bft64-saturated-cutoff", digest: 0x680f8014718526b4, cfg: Config{
			Net: topology.MustFatTree(64), MsgFlits: 32, Seed: 3,
			WarmupCycles: 500, MeasureCycles: 3000, DrainLimit: 4,
		}.FlitLoad(0.5)},
	}
}

// resultDigest folds every field mustMatch compares into one FNV-1a
// hash: the floats by their bits (every NaN as math.NaN(), as sameF64
// treats NaN as equal to NaN), the counters, the flags, the network name
// and each channel's busy fraction.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(f float64) {
		if math.IsNaN(f) {
			f = math.NaN()
		}
		word(math.Float64bits(f))
	}
	for _, f := range []float64{
		r.LatencyMean, r.LatencyCI95, r.LatencyMin, r.LatencyMax,
		r.WaitInjMean, r.ServiceInjMean, r.ThroughputFlits, r.OfferedFlits,
		r.MeanSourceQueue, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.Precision,
	} {
		f64(f)
	}
	for _, n := range []int{
		r.TrackedInjected, r.TrackedCompleted, r.TotalCompleted,
		r.Cycles, r.Replicas, r.MeasuredCycles,
	} {
		word(uint64(n))
	}
	for _, flag := range []bool{r.Saturated, r.EarlyStopped} {
		if flag {
			word(1)
		} else {
			word(0)
		}
	}
	h.Write([]byte(r.Name))
	word(uint64(len(r.ChannelBusy)))
	for _, f := range r.ChannelBusy {
		f64(f)
	}
	return h.Sum64()
}

// TestResultDigestsPinned is the determinism pin: on every pinned
// family the engine's Result, plain and with early stopping explicitly
// off, hashes to the family's digest. It shows the engine unchanged, not
// right — the conservation laws (conservation_test.go) hold in every
// epoch and show that. A change meant to move results is a new epoch:
// it regenerates these digests, and says so.
func TestResultDigestsPinned(t *testing.T) {
	ctx := context.Background()
	for _, tc := range pinnedFamilies() {
		t.Run(tc.name, func(t *testing.T) {
			for _, opts := range [][]Option{nil, {WithTermination(Termination{}), WithReplicas(1)}} {
				res, err := Run(ctx, tc.cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(res); got != tc.digest {
					t.Errorf("%d options: digest %#016x, pinned %#016x; the Result:\n%+v",
						len(opts), got, tc.digest, *res)
				}
			}
		})
	}
}

// TestWithoutChannelBusyChangesNothingElse: the option only drops the
// per-channel column. On every pinned family, an early-stopped run and a
// merged pair of replicas, the Result without ChannelBusy hashes to the
// default Result's digest with its ChannelBusy left out, and carries a
// nil ChannelBusy.
func TestWithoutChannelBusyChangesNothingElse(t *testing.T) {
	ctx := context.Background()
	bft64 := Config{
		Net: topology.MustFatTree(64), MsgFlits: 16, Seed: 42,
		WarmupCycles: 2000, MeasureCycles: 60000,
	}
	short := bft64
	short.WarmupCycles, short.MeasureCycles = 1000, 4000
	cases := append(pinnedFamilies(),
		simCase{name: "early-stopped", cfg: bft64.FlitLoad(0.01), opts: []Option{WithTermination(DefaultTermination)}},
		simCase{name: "replicas-2", cfg: short.FlitLoad(0.03), opts: []Option{WithReplicas(2)}},
	)
	for _, tc := range cases {
		def, err := Run(ctx, tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bare, err := Run(ctx, tc.cfg, append(tc.opts, WithoutChannelBusy())...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if bare.ChannelBusy != nil {
			t.Errorf("%s: ChannelBusy has %d entries, want nil", tc.name, len(bare.ChannelBusy))
		}
		if len(def.ChannelBusy) != tc.cfg.Net.NumChannels() {
			t.Errorf("%s: default ChannelBusy has %d entries, want one per channel (%d)",
				tc.name, len(def.ChannelBusy), tc.cfg.Net.NumChannels())
		}
		want := *def
		want.ChannelBusy = nil
		if got, w := resultDigest(bare), resultDigest(&want); got != w {
			t.Errorf("%s: digest %#016x without ChannelBusy, %#016x by default with it left out; the Results:\n%+v\n%+v",
				tc.name, got, w, *bare, want)
		}
		if tc.name == "early-stopped" && !bare.EarlyStopped {
			t.Errorf("%s: the rule did not fire; the case pins nothing", tc.name)
		}
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
		id   uint64
		want uint64
	}{
		{"shuffle", streamShuffle, 0x13e629e9b0b27c97},
		{"dest(0)", streamDest(0), 0xdaa73d3e72048932},
		{"dest(1)", streamDest(1), 0x0baa8a541a895b98},
		{"arrival(0)", streamArrival(0), 0xe1edf91ad8b1bcf6},
		{"arrival(1)", streamArrival(1), 0x9bc651fc0851467c},
	}
	for _, g := range golden {
		var rng traffic.RNG
		master.SplitInto(&rng, g.id)
		if got := rng.Uint64(); got != g.want {
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
