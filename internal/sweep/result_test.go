package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestRowJSONRoundTrip pins the NDJSON line format: every row a sweep
// can produce marshals to bytes that unmarshal back into a row whose
// re-marshalling is byte-identical — the property that lets a remote
// client (cmd/sweep -stream, /v1/sweep consumers) relay or re-render a
// stream without drift.
func TestRowJSONRoundTrip(t *testing.T) {
	res, err := (&Runner{Workers: 2}).Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]Row(nil), res.Rows...)
	// Synthetic corner rows: a saturated model (+Inf), a cached
	// model-only cell, and a non-default policy/variant combination.
	rows = append(rows,
		Row{
			Scenario: Scenario{
				Topology: Topology{Family: FamilyBFT, Size: 64},
				MsgFlits: 16,
			},
			Cell: Cell{LoadFlits: 2.5, Model: math.Inf(1), ModelSaturated: true,
				Sim: math.NaN(), SimCI: math.NaN()},
		},
		Row{
			Scenario: Scenario{
				Topology: Topology{Family: FamilyTorus, Size: 3, K: 4},
				MsgFlits: 32,
				Policy:   sim.RandomFixed,
				Variant:  Variant{Name: "no-blocking", NoBlockingCorrection: true},
			},
			Cell:   Cell{LoadFlits: 0.01, Model: 55.5, Sim: math.NaN(), SimCI: math.NaN()},
			Cached: true,
		},
	)
	for i, row := range rows {
		first, err := json.Marshal(row)
		if err != nil {
			t.Fatalf("row %d: marshal: %v", i, err)
		}
		var decoded Row
		if err := json.Unmarshal(first, &decoded); err != nil {
			t.Fatalf("row %d: unmarshal: %v\n%s", i, err, first)
		}
		second, err := json.Marshal(decoded)
		if err != nil {
			t.Fatalf("row %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("row %d: round trip drifted:\n  first  %s\n  second %s", i, first, second)
		}
		// The identity and measured values must survive typed, not just
		// as bytes.
		sc, dsc := row.Scenario, decoded.Scenario
		if dsc.Topology != sc.Topology || dsc.MsgFlits != sc.MsgFlits ||
			dsc.Policy != sc.Policy || dsc.Variant.Name != sc.Variant.Name {
			t.Errorf("row %d: identity mangled: %+v vs %+v", i, dsc, sc)
		}
		if dsc.Seed() != sc.Seed() {
			t.Errorf("row %d: seed %d became %d", i, sc.Seed(), dsc.Seed())
		}
		same := func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
		}
		if !same(decoded.Model, row.Model) || !same(decoded.Sim, row.Sim) ||
			!same(decoded.SimCI, row.SimCI) || !same(decoded.LoadFlits, row.LoadFlits) ||
			decoded.ModelSaturated != row.ModelSaturated || decoded.SimSaturated != row.SimSaturated ||
			decoded.Cached != row.Cached {
			t.Errorf("row %d: values mangled:\n  in  %+v cached=%v\n  out %+v cached=%v",
				i, row.Cell, row.Cached, decoded.Cell, decoded.Cached)
		}
	}
}

func TestRowUnmarshalRejectsBadPolicy(t *testing.T) {
	var row Row
	if err := json.Unmarshal([]byte(`{"policy":"lifo"}`), &row); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := json.Unmarshal([]byte(`{`), &row); err == nil {
		t.Error("malformed JSON accepted")
	}
}
