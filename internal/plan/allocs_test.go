package plan

import (
	"context"
	"math"
	"runtime"
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

// TestPortCostAllocs: a bft candidate's ports cost is
// the channel count of the process's one simulator topology of it, the one
// eval.SimBackend simulates on. Once a simulation has built that topology
// the cost builds nothing: its first call allocates nothing, and neither
// does any after it.
func TestPortCostAllocs(t *testing.T) {
	topo := eval.Topology{Family: eval.FamilyBFT, Size: 64}
	sc := eval.Scenario{
		Topology: topo, MsgFlits: 8, WithSim: true, Load: eval.Load{Value: 0.01},
		Budget: eval.Budget{Warmup: 10, Measure: 20, DrainLimit: 1},
	}
	if _, err := eval.NewSimBackend(nil).Evaluate(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	net, err := eval.SimNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{}.withDefaults()
	cost := func() float64 {
		c, err := spec.cost(topo, 8)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := cost()
	runtime.ReadMemStats(&after)
	if want := float64(net.NumChannels()); c != want {
		t.Errorf("ports cost of %s = %v, want its simulated topology's %v channels", topo, c, want)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 && !race.Enabled {
		t.Errorf("the first ports cost after a simulation of %s allocates %d times, want 0", topo, n)
	}
	if got := testing.AllocsPerRun(100, func() { cost() }); got != 0 && !race.Enabled {
		t.Errorf("a ports cost allocates %v times, want 0", got)
	}
}
