package plan

import (
	"context"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sim"
)

// TestSearchProbeAllocs: a warm search probe — the candidate at an
// absolute load, on the planner's own cache-less runner — allocates
// nothing, with the bound calculus on and off. The search issues about
// a hundred probes a plan, so an allocation here is multiplied by every
// bisection step.
func TestSearchProbeAllocs(t *testing.T) {
	ctx := context.Background()
	p := New(nil)
	e := &candidate{
		c:      &Candidate{Topology: eval.Topology{Family: eval.FamilyBFT, Size: 1024}, MsgFlits: 16},
		policy: sim.PairQueue,
	}
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"model", Spec{}},
		{"bounds", Spec{WithBounds: true}},
	} {
		if pt, err := p.searchAt(ctx, c.spec, e, 0.02); err != nil || math.IsNaN(pt.Model) ||
			c.spec.WithBounds == math.IsNaN(pt.BoundMax) {
			t.Fatalf("%s: %+v, %v", c.name, pt, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := p.searchAt(ctx, c.spec, e, 0.02); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 && !race.Enabled {
			t.Errorf("%s: a warm search probe allocates %v times, want 0", c.name, got)
		}
	}
}
