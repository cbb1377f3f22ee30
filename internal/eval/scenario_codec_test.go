package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// scenarioFlags sets sc's booleans from flags, one bit each; bit 7 gives
// it a workload that is not the default.
func scenarioFlags(sc Scenario, flags uint8) Scenario {
	sc.Load.Frac = flags&1 != 0
	sc.Variant.NoBlockingCorrection = flags&2 != 0
	sc.Variant.SingleServerGroups = flags&4 != 0
	sc.Variant.NoPairRateCorrection = flags&8 != 0
	sc.Variant.WithSim = flags&16 != 0
	sc.WithSim = flags&32 != 0
	sc.WithBounds = flags&64 != 0
	if flags&128 != 0 {
		sc.Workload = &workload.Spec{Process: workload.ProcessGamma, Shape: 2}
	}
	return sc
}

// roundTrips reports whether AppendScenario writes sc itself, rather
// than handing it to encoding/json, as a scenario a decoder takes back:
// a policy with no name (policy(7)) is written, and refused on the way in,
// and a default workload that is not nil is written as none and read as nil.
func roundTrips(sc *Scenario) bool {
	return finite(sc.Load.Value) && finite(sc.Budget.Precision) && sc.Workload == nil &&
		plain(sc.Topology.Family) && plain(sc.Variant.Name) &&
		(sc.Policy == sim.PairQueue || sc.Policy == sim.RandomFixed)
}

// checkScenarioCodec is the differential property of both directions for
// one scenario and one byte string.
func checkScenarioCodec(t *testing.T, sc Scenario, raw []byte) {
	t.Helper()
	got, err := AppendScenario(nil, &sc)
	want, wantErr := json.Marshal(sc.wire())
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("AppendScenario(%+v)\n  got  %s (%v)\n  want %s (%v)", sc, got, err, want, wantErr)
	}
	if roundTrips(&sc) {
		// What the codec writes for a canonical scenario is canonical: its
		// own scanner takes it back, whole.
		var back Scenario
		if !ParseScenario(got, &back) || back != sc {
			t.Fatalf("ParseScenario(%s) = %+v, want %+v", got, back, sc)
		}
	}
	checkScenarioParse(t, got)
	checkScenarioParse(t, raw)
}

// checkScenarioParse: whatever ParseScenario accepts decodes as
// encoding/json decodes it, and what it declines it leaves untouched.
func checkScenarioParse(t *testing.T, raw []byte) {
	t.Helper()
	sentinel := Scenario{Index: -7, Topology: Topology{Family: "sentinel"}}
	scanned := sentinel
	if !ParseScenario(raw, &scanned) {
		if scanned != sentinel {
			t.Fatalf("ParseScenario declined %q but wrote %+v", raw, scanned)
		}
		return
	}
	var ref Scenario
	if err := ref.decode(raw); err != nil {
		t.Fatalf("ParseScenario accepted %q, encoding/json rejects it: %v", raw, err)
	}
	if scanned != ref {
		t.Fatalf("ParseScenario(%q) = %+v, encoding/json says %+v", raw, scanned, ref)
	}
}

// codecScenarios cover every optional member of the wire form, both
// sides of each string and number rule, and the fall-through cases.
var codecScenarios = []Scenario{
	{},
	{Index: 3, Topology: Topology{Family: FamilyBFT, Size: 1024}, MsgFlits: 16, Policy: sim.RandomFixed,
		Load: Load{Frac: true, Value: 0.95}, Variant: Variant{Name: "no-blocking", NoBlockingCorrection: true, WithSim: true},
		WithSim: true, LoadIndex: 9, Budget: Budget{Warmup: 4000, Measure: 20000, Seed: 1, DrainLimit: 7}},
	{Topology: Topology{Family: FamilyTorus, Size: 3, K: 4}, MsgFlits: 32, Load: Load{Value: 0.0625}, WithBounds: true},
	{Index: -1, Topology: Topology{Family: FamilyHypercube, Size: -6}, MsgFlits: math.MaxInt, Load: Load{Value: 1e-7},
		LoadIndex: math.MinInt, Budget: Budget{Seed: math.MaxUint64, Precision: 0.05, Replicas: 4}},
	{Topology: Topology{Family: "fam<ily>"}, Load: Load{Value: 1e21}},
	{Topology: Topology{Family: "a\"b\\c"}, Variant: Variant{Name: "é"}},
	{Topology: Topology{Family: "bft"}, Variant: Variant{Name: "\xff\x00"}},
	{Topology: Topology{Family: "plain (ascii) ~"}, Policy: sim.UpLinkPolicy(7), Budget: Budget{Measure: 1}},
	{Load: Load{Value: math.NaN()}},
	{Load: Load{Value: math.Inf(-1)}, Budget: Budget{Precision: math.Inf(1)}},
	{Budget: Budget{Precision: math.NaN()}},
	{Topology: Topology{Family: FamilyBFT, Size: 64}, Workload: &workload.Spec{Name: "steady"}},
	{Topology: Topology{Family: FamilyBFT, Size: 64}, Workload: &workload.Spec{Process: workload.ProcessGamma, Shape: 2}},
}

// scenarioInputs are byte strings around the canonical form: inside it,
// just outside it (the fallback's business) and not JSON at all.
var scenarioInputs = []string{
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"lifo","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"frac":false,"value":0.01},"variant":{},"load_index":0,"with_sim":false,"with_bounds":false}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":null},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"workload":{"process":"gamma","shape":2}}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"workload":{"process":"bogus"}}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}` + "\n",
	` {"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"extra":1}`,
	`{"topology":{"family":"bft","size":64},"index":0,"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"INDEX":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":1.0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":1e1,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":99999999999999999999,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":-0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":-0},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":1e999},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"budget":{"warmup":1,"measure":2,"seed":-1}}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"budget":{"warmup":1,"measure":2,"seed":18446744073709551616}}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"budget":{"measure":2,"warmup":1,"seed":3}}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"variant":{"with_sim":true,"name":"x"},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"variant":{"name":"x",},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"variant":{,"with_sim":true},"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"variant":null,"load_index":0}`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0,"with_bounds":true}x`,
	`{"index":0,"topology":{"family":"bft","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0`,
	`{"index":0,"topology":{"family":"a	b","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{"index":0,"topology":{"family":"<&>","size":64},"msg_flits":16,"policy":"pairqueue","load":{"value":0.01},"load_index":0}`,
	`{}`, `null`, ``, `{`, `[1,2]`, "\xff\xfe", `{"policy":"lifo"}`,
}

// TestScenarioCodecMatchesEncodingJSON runs the fuzz property over the
// seed scenarios and inputs, so `go test` pins it without the fuzzer.
func TestScenarioCodecMatchesEncodingJSON(t *testing.T) {
	for i, sc := range codecScenarios {
		for _, flags := range []uint8{0, 1, 0x3f, 0x7f, 0xff} {
			checkScenarioCodec(t, scenarioFlags(sc, flags|scenarioFlagsOf(sc)), []byte(scenarioInputs[i%len(scenarioInputs)]))
		}
	}
	for _, raw := range scenarioInputs {
		checkScenarioParse(t, []byte(raw))
	}
}

// scenarioFlagsOf is the inverse of scenarioFlags on the booleans, so a
// seed scenario keeps the ones it was written with.
func scenarioFlagsOf(sc Scenario) uint8 {
	var f uint8
	for i, set := range []bool{sc.Load.Frac, sc.Variant.NoBlockingCorrection, sc.Variant.SingleServerGroups,
		sc.Variant.NoPairRateCorrection, sc.Variant.WithSim, sc.WithSim, sc.WithBounds} {
		if set {
			f |= 1 << i
		}
	}
	return f
}

// FuzzScenarioCodec is the scenario codec's contract: AppendScenario is
// byte-identical to json.Marshal of the reflective wire struct (error or
// not), and whatever ParseScenario accepts decodes as encoding/json
// decodes the same bytes; what it declines it leaves to encoding/json.
func FuzzScenarioCodec(f *testing.F) {
	for i, sc := range codecScenarios {
		raw, _ := AppendScenario(nil, &sc)
		f.Add(sc.Index, sc.Topology.Family, sc.Topology.Size, sc.Topology.K, sc.MsgFlits, uint8(sc.Policy),
			sc.Load.Value, sc.Variant.Name, sc.LoadIndex, sc.Budget.Warmup, sc.Budget.Measure, sc.Budget.Seed,
			sc.Budget.DrainLimit, sc.Budget.Precision, sc.Budget.Replicas, scenarioFlagsOf(sc), raw)
		f.Add(i, FamilyBFT, 64, 0, 16, uint8(i), 0.01, "", i, 0, 0, uint64(0), 0, 0.0, 0, uint8(i*37), []byte(scenarioInputs[i%len(scenarioInputs)]))
	}
	for i, raw := range scenarioInputs {
		f.Add(i, FamilyTorus, 3, 4, 32, uint8(1), 0.5, "v", 2, 100, 1000, uint64(7), 5, 0.05, 2, uint8(0x55), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, index int, family string, size, k, msgFlits int, policy uint8, value float64, name string,
		loadIndex, warmup, measure int, seed uint64, drain int, precision float64, replicas int, flags uint8, raw []byte) {
		sc := scenarioFlags(Scenario{
			Index:     index,
			Topology:  Topology{Family: family, Size: size, K: k},
			MsgFlits:  msgFlits,
			Policy:    sim.UpLinkPolicy(policy % 3),
			Load:      Load{Value: value},
			Variant:   Variant{Name: name},
			LoadIndex: loadIndex,
			Budget:    Budget{Warmup: warmup, Measure: measure, Seed: seed, DrainLimit: drain, Precision: precision, Replicas: replicas},
		}, flags)
		checkScenarioCodec(t, sc, raw)
	})
}

// TestScenarioCodecAllocs is the scenario codec's allocation budget:
// appending into a buffer with room allocates nothing, and scanning a
// canonical default-workload scenario back allocates only its variant's
// name (a Family* constant is shared, not copied).
func TestScenarioCodecAllocs(t *testing.T) {
	sc := Scenario{Index: 2559, Topology: Topology{Family: FamilyBFT, Size: 1024}, MsgFlits: 32, Policy: sim.RandomFixed,
		Load: Load{Frac: true, Value: 0.0005957626171073915}, Variant: Variant{Name: "no-blocking", NoBlockingCorrection: true},
		LoadIndex: 79, WithSim: true, Budget: Budget{Warmup: 4000, Measure: 20000, Seed: 1, Precision: 0.05}, WithBounds: true}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() { buf, _ = AppendScenario(buf[:0], &sc) }); n != 0 {
		t.Errorf("AppendScenario into a buffer with room: %v allocs, want 0", n)
	}
	unnamed := sc
	unnamed.Variant.Name = ""
	for _, c := range []struct {
		sc   Scenario
		want float64
	}{{sc, 1}, {unnamed, 0}} {
		raw, err := AppendScenario(nil, &c.sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if n := testing.AllocsPerRun(200, func() {
			if !ParseScenario(raw, &back) {
				t.Fatalf("ParseScenario declined its own %s", raw)
			}
		}); n > c.want {
			t.Errorf("ParseScenario(%s): %v allocs, want at most %v", raw, n, c.want)
		}
		if back != c.sc {
			t.Errorf("round trip changed the scenario: %+v → %+v", c.sc, back)
		}
		// For comparison, not pinned: the encoding/json decoder the scan
		// replaces, on the same bytes.
		t.Logf("ParseScenario %v allocs, encoding/json %v, on %s",
			testing.AllocsPerRun(50, func() { ParseScenario(raw, &back) }),
			testing.AllocsPerRun(50, func() { back.decode(raw) }), raw)
	}
}
