package eval

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestParseKeyRoundTrip drives CutSalt and ParseKey over the cross product
// of every optional spelling a stored line can carry — salts, variants,
// budget knobs, workloads, bounds, fractional and absolute loads: the
// salt comes off whole, what is left is the scenario's key to the byte,
// and the coordinates recovered from it are the scenario's.
func TestParseKeyRoundTrip(t *testing.T) {
	salts := []string{
		"",
		"backends=bounds|",
		"backends=analytic,sim|",
		"backends=fleet-2,batch|",
		"backends=remote(http://10.0.0.1:8713,http://10.0.0.2:8713)|",
	}
	budgets := []Budget{
		{Warmup: 4000, Measure: 20000, Seed: 1},
		{Warmup: 4000, Measure: 20000, Seed: 1, DrainLimit: 5000},
		{Warmup: 2000, Measure: 64000, Seed: 42, Precision: 0.05, Replicas: 4},
		{Warmup: 1000, Measure: 8000, Seed: 7, DrainLimit: 100, Precision: 0.015625, Replicas: 2},
	}
	variants := []Variant{
		{},
		{Name: "no-blocking", NoBlockingCorrection: true},
		{Name: "mg1", SingleServerGroups: true, NoPairRateCorrection: true},
		{NoBlockingCorrection: true, SingleServerGroups: true, NoPairRateCorrection: true},
	}
	workloads := []*workload.Spec{
		nil,
		{Process: workload.ProcessMMPP, OnFrac: 0.3, BurstCycles: 400},
		{Trace: "/tmp/traces/run one.ndjson"}, // path with a space
	}
	topos := []Topology{
		{Family: FamilyBFT, Size: 256},
		{Family: FamilyHypercube, Size: 10},
		{Family: FamilyTorus, Size: 3, K: 8},
	}
	loads := []Load{
		{Frac: true, Value: 0.9},
		{Value: 0.0125},
	}
	policies := []sim.UpLinkPolicy{sim.PairQueue, sim.RandomFixed}

	n := 0
	for _, salt := range salts {
		for _, bud := range budgets {
			for _, v := range variants {
				for _, wk := range workloads {
					for _, topo := range topos {
						for _, ld := range loads {
							for _, pol := range policies {
								for _, withSim := range []bool{false, true} {
									for _, withBounds := range []bool{false, true} {
										sc := Scenario{
											Topology:   topo,
											MsgFlits:   20,
											Policy:     pol,
											Load:       ld,
											Variant:    v,
											LoadIndex:  3,
											WithSim:    withSim,
											Budget:     bud,
											WithBounds: withBounds,
											Workload:   wk,
										}
										checkRoundTrip(t, salt, sc)
										n++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("round-tripped %d keys", n)
}

func checkRoundTrip(t *testing.T, salt string, sc Scenario) {
	t.Helper()
	line := salt + sc.Key()
	cut, key := CutSalt(line)
	if cut != salt || key != sc.Key() {
		t.Fatalf("CutSalt(%q) = %q, %q; want %q, %q", line, cut, key, salt, sc.Key())
	}
	got, wk, err := ParseKey(key)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", key, err)
	}
	if salt != "" {
		if _, _, err := ParseKey(line); err == nil {
			t.Fatalf("ParseKey(%q) accepted a salted line: a key is a Scenario.Key", line)
		}
	}
	// What a key carries comes back; what it does not (Index, LoadIndex,
	// the variant's name and sim flag, a model-only budget) comes back
	// zero, and Budget.Seed is the derived seed.
	want := Scenario{
		Topology: sc.Topology,
		MsgFlits: sc.MsgFlits,
		Policy:   sc.Policy,
		Load:     sc.Load,
		Variant: Variant{
			NoBlockingCorrection: sc.Variant.NoBlockingCorrection,
			SingleServerGroups:   sc.Variant.SingleServerGroups,
			NoPairRateCorrection: sc.Variant.NoPairRateCorrection,
		},
		WithSim:    sc.WithSim,
		WithBounds: sc.WithBounds,
	}
	if sc.WithSim {
		want.Budget = sc.Budget
		want.Budget.Seed = sc.Seed()
	}
	if got != want {
		t.Fatalf("key %q: scenario %+v, want %+v", key, got, want)
	}
	if wk != sc.Workload.Canonical() {
		t.Fatalf("key %q: workload %q, want %q", key, wk, sc.Workload.Canonical())
	}
}

// TestParseKeyLoadValueExact pins the hex-float round trip: the load
// value recovered from a key must be bit-identical, not merely close.
func TestParseKeyLoadValueExact(t *testing.T) {
	for _, v := range []float64{0.1, 1.0 / 3.0, 0.9, 5e-324, 0.0125} {
		sc := Scenario{
			Topology: Topology{Family: FamilyBFT, Size: 64},
			MsgFlits: 8,
			Load:     Load{Value: v},
		}
		got, _, err := ParseKey(sc.Key())
		if err != nil {
			t.Fatalf("ParseKey: %v", err)
		}
		if math.Float64bits(got.Load.Value) != math.Float64bits(v) {
			t.Errorf("load %v: recovered %v (bits differ)", v, got.Load.Value)
		}
	}
}

// TestParseKeyMalformed checks that broken keys produce errors (never
// panics) and that the error names the key.
func TestParseKeyMalformed(t *testing.T) {
	cases := []string{
		"",
		"9d5f0c2ab15e44b1a7c3e8d2f6a9b0c4", // a historical hashed key
		"family=bft",
		"family= size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false",
		"family=bft size=four k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=maybe load=0x1p-03 sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=bogus sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=NaN sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 variant=falsefalsefalse sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 variant=truetrue sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=true",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=true warmup=10 measure=20",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=true warmup=10 measure=20 seed=-1",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false bounds=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false junk=1",
		"backends=bounds family=bft size=4", // salt without terminator
		"backends=|",
		"size=4 family=bft k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false", // out of order
		// Spellings the parser can read but Key never writes.
		"family=bft size=+4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0.125 sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1.0p-01 sim=false",
		"family=bft size=4 size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=false",
		"family=bft size=4 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 variant=truefalsetruex sim=false",
	}
	for _, key := range cases {
		if _, _, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q): expected error, got none", key)
		} else if key != "" && !strings.Contains(err.Error(), "eval:") {
			t.Errorf("ParseKey(%q): error %v lacks package prefix", key, err)
		}
	}
}

// FuzzParseKey reads an arbitrary stored line the way the calibration
// layer does — CutSalt, then ParseKey on what is left — and asserts that
// neither panics, that salt plus key re-assembles the line, that a salt is
// exactly a "backends=" prefix up to its first '|' (a prefix without one is
// not a salt), and that every accepted key is what appendKey writes for
// the scenario and workload ParseKey returned.
func FuzzParseKey(f *testing.F) {
	seeds := []string{
		"",
		"family=bft size=1024 k=0 flits=20 policy=pairqueue frac=true load=0x1.cccccccccccccdp-01 sim=false",
		"backends=bounds|family=bft size=64 k=0 flits=8 policy=pairqueue frac=false load=0x1p-03 sim=true warmup=4000 measure=20000 seed=1 bounds=true",
		"family=hypercube size=10 k=0 flits=16 policy=randomfixed frac=true load=0x1p-01 variant=truefalsetrue sim=true warmup=100 measure=200 seed=7919 prec=0x1.999999999999ap-05 reps=4 workload=mmpp(0.3,400)",
		"family=torus size=3 k=8 flits=20 policy=pairqueue frac=false load=0x1p+00 sim=false workload=trace:/tmp/a b.ndjson bounds=true",
		"9d5f0c2ab15e44b1a7c3e8d2f6a9b0c4",
		"family=bft size=4 k=0",
		"backends=",
		"family=bft\x00size=4",
		"family=bft size=999999999999999999999999 k=0",
		strings.Repeat("family=bft ", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		salt, key := CutSalt(line)
		if salt+key != line {
			t.Fatalf("CutSalt(%q) = %q, %q: does not re-assemble", line, salt, key)
		}
		if salted := strings.HasPrefix(line, "backends=") && strings.Contains(line, "|"); salted != (salt != "") {
			t.Fatalf("CutSalt(%q): salt %q", line, salt)
		}
		if salt != "" && strings.IndexByte(salt, '|') != len(salt)-1 {
			t.Fatalf("CutSalt(%q): salt %q does not end at its first '|'", line, salt)
		}
		if sc, wk, err := ParseKey(key); err == nil {
			if again := string(sc.appendKey(nil, wk, false)); again != key {
				t.Fatalf("ParseKey(%q) accepted a key appendKey writes as %q", key, again)
			}
		}
	})
}
