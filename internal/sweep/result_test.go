package sweep

import (
	"encoding/json"
	"math"
	"testing"
	"unsafe"

	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRowJSONRoundTrip pins the NDJSON line format of cmd/sweep -stream
// byte for byte on its corner rows: a saturated model (+Inf → null plus
// the marker), a cached model-only cell with a non-default policy and
// variant, and a bursty sim cell that is model-not-applicable. Marshal
// is the format's only side; a consumer decodes the lines as plain JSON.
func TestRowJSONRoundTrip(t *testing.T) {
	for i, tc := range []struct {
		row  Row
		want string
	}{
		{Row{
			Scenario: Scenario{
				Topology: Topology{Family: FamilyBFT, Size: 64},
				MsgFlits: 16,
			},
			Cell: Cell{LoadFlits: 2.5, Model: math.Inf(1), ModelSaturated: true,
				Sim: math.NaN(), SimCI: math.NaN(), BoundMax: math.NaN()},
		}, `{"topology":"bft-64","family":"bft","size":64,"msg_flits":16,"policy":"pairqueue","load_flits":2.5,"model_latency":null,"model_saturated":true,"seed":0}`},
		{Row{
			Scenario: Scenario{
				Topology: Topology{Family: FamilyTorus, Size: 3, K: 4},
				MsgFlits: 32,
				Policy:   sim.RandomFixed,
				Variant:  Variant{Name: "no-blocking", NoBlockingCorrection: true},
			},
			Cell:   Cell{LoadFlits: 0.01, Model: 55.5, Sim: math.NaN(), SimCI: math.NaN(), BoundMax: math.Inf(1), BoundUnbounded: true},
			Cached: true,
		}, `{"topology":"torus-4x3","family":"torus","size":3,"k":4,"msg_flits":32,"policy":"randomfixed","variant":"no-blocking","load_flits":0.01,"model_latency":55.5,"bound_unbounded":true,"seed":0,"cached":true}`},
		{Row{
			Scenario: Scenario{
				Topology: Topology{Family: FamilyBFT, Size: 16},
				MsgFlits: 8,
				Budget:   Budget{Warmup: 100, Measure: 1000, Seed: 3},
				Workload: &workload.Spec{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 100},
			},
			Cell: Cell{LoadFlits: 0.02, Model: math.NaN(), ModelNA: true, Sim: 31.25, SimCI: 0.5,
				SimPrecision: math.NaN(), BoundMax: math.NaN(), BoundNA: true},
		}, `{"topology":"bft-16","family":"bft","size":16,"msg_flits":8,"policy":"pairqueue","workload":{"name":"burst","process":"mmpp","on_frac":0.25,"burst_cycles":100},"load_flits":0.02,"model_latency":null,"model_na":true,"sim_latency":31.25,"sim_ci95":0.5,"bound_na":true,"seed":3}`},
	} {
		got, err := json.Marshal(tc.row)
		if err != nil {
			t.Fatalf("row %d: marshal: %v", i, err)
		}
		if string(got) != tc.want {
			t.Errorf("row %d: marshalled\n  %s\nwant\n  %s", i, got, tc.want)
		}
	}
}

// TestRowSize pins the in-memory size of a grid row on 64-bit platforms:
// a point keeps its five flags after its six values (56 bytes) and a
// scenario its two backend switches side by side (168), so that a row is
// 232 bytes, not the 256 the interleaved layouts padded it to. The wire
// and store forms do not depend on field order.
func TestRowSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"eval.Point", unsafe.Sizeof(eval.Point{}), 56},
		{"eval.Scenario", unsafe.Sizeof(eval.Scenario{}), 168},
		{"sweep.Row", unsafe.Sizeof(Row{}), 232},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
