package eval_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// TestAppendPartRequestIsMarshal holds the range body the dispatcher
// splices to encoding/json's: for random specs, marshalled as the
// dispatcher marshals its grid's, and random ranges, AppendPartRequest
// writes the bytes json.Marshal writes for the PartRequest. The names
// draw from characters encoding/json escapes (HTML, line separators,
// control bytes, invalid UTF-8), which a spliced spec carries as the
// spec's own marshal escaped them.
func TestAppendPartRequestIsMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runes := []rune("abz09 <>&\"\\/  \x00\x1f\t\né€😀�")
	str := func() string {
		var b []byte
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(16) == 0 {
				b = append(b, 0xff) // invalid UTF-8
				continue
			}
			b = append(b, string(runes[rng.Intn(len(runes))])...)
		}
		return string(b)
	}
	families := []string{sweep.FamilyBFT, "hypercube", "torus"}
	for i := 0; i < 2000; i++ {
		spec := sweep.Spec{
			Name:        str(),
			Description: str(),
			MsgFlits:    []int{1 + rng.Intn(64)},
			Loads:       sweep.LoadSpec{Points: rng.Intn(40), MaxFrac: rng.Float64()},
			WithSim:     rng.Intn(2) == 0,
			Budget:      sweep.Budget{Warmup: rng.Intn(1000), Measure: rng.Intn(10000), Seed: rng.Uint64()},
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			spec.Topologies = append(spec.Topologies, sweep.TopologySpec{
				Family: families[rng.Intn(len(families))], Sizes: []int{rng.Intn(1 << 16)}, K: rng.Intn(8),
			})
		}
		if rng.Intn(2) == 0 {
			spec.Loads.Fracs = []float64{rng.Float64(), rng.ExpFloat64() * 1e-7}
		}
		if rng.Intn(3) == 0 {
			spec.Policies = []string{str()}
		}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		start := rng.Intn(1 << uint(rng.Intn(31)))
		end := start + rng.Intn(1<<uint(rng.Intn(21)))
		if i%7 == 0 {
			start, end = 0, 0 // the whole grid
		}
		want, err := json.Marshal(eval.PartRequest{Spec: specJSON, Start: start, End: end})
		if err != nil {
			t.Fatal(err)
		}
		if got := eval.AppendPartRequest(nil, specJSON, start, end); !bytes.Equal(got, want) {
			t.Fatalf("spec %d, range [%d, %d):\n spliced %s\n marshal %s", i, start, end, got, want)
		}
	}
}
