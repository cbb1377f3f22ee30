package analytic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/race"
)

// allocBudget is the allowed allocations per call: exact without the race
// detector, relaxed with it (sync.Pool drops Puts there, so a pooled
// workspace is sometimes rebuilt).
func allocBudget(exact float64) float64 {
	if race.Enabled {
		return exact + 16
	}
	return exact
}

// TestLatencyAllocs: after the first call, Latency on a stable point
// allocates nothing — for every family and every variant, through the
// closed form and through the compiled graph alike.
func TestLatencyAllocs(t *testing.T) {
	for _, v := range goldenVariants {
		models := []*Model{
			&MustFatTreeModel(1024, 16, v.opt).Model,
			&MustHypercubeModel(8, 16, v.opt).Model,
			&MustTorusModel(4, 3, 16, v.opt).Model,
		}
		for _, m := range models {
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.name, err)
			}
			lambda0 := 0.7 * sat / m.MsgFlits()
			if _, err := m.Latency(lambda0); err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.name, err)
			}
			got := testing.AllocsPerRun(200, func() {
				if _, err := m.Latency(lambda0); err != nil {
					t.Fatal(err)
				}
			})
			if got > allocBudget(0) {
				t.Errorf("%s %s: Latency allocates %v times per stable point, want 0", m.Name(), v.name, got)
			}
		}
	}
}

// TestModelBuildAllocs: a constructor's allocations do not grow with the
// network: class names share one string, transition lists one slab, and
// core.Compile copies them into one slab of its own.
func TestModelBuildAllocs(t *testing.T) {
	for _, v := range goldenVariants {
		for _, pair := range []struct {
			family       string
			small, big   func() *Model
			smallN, bigN string
		}{
			{"bft", func() *Model { return &MustFatTreeModel(16, 16, v.opt).Model },
				func() *Model { return &MustFatTreeModel(4096, 16, v.opt).Model }, "bft-16", "bft-4096"},
			{"hypercube", func() *Model { return &MustHypercubeModel(3, 16, v.opt).Model },
				func() *Model { return &MustHypercubeModel(10, 16, v.opt).Model }, "hypercube-3", "hypercube-10"},
			{"torus", func() *Model { return &MustTorusModel(4, 2, 16, v.opt).Model },
				func() *Model { return &MustTorusModel(4, 3, 16, v.opt).Model }, "4-ary 2-cube", "4-ary 3-cube"},
		} {
			small := testing.AllocsPerRun(50, func() { pair.small() })
			big := testing.AllocsPerRun(50, func() { pair.big() })
			if small != big {
				t.Errorf("%s: building %s allocates %v times, %s %v: want the same", v.name, pair.smallN, small, pair.bigN, big)
			}
			if small > 12 {
				t.Errorf("%s: building %s allocates %v times, want at most 12", v.name, pair.smallN, small)
			}
		}
	}
}

// TestSaturationLoadAllocs: the Eq. 26 search allocates nothing, although
// every other bisection step probes past saturation — for every family
// and variant, through the closed form and the compiled graph alike.
func TestSaturationLoadAllocs(t *testing.T) {
	for _, v := range goldenVariants {
		for _, m := range []*Model{
			&MustFatTreeModel(1024, 16, v.opt).Model,
			&MustHypercubeModel(8, 16, v.opt).Model,
			&MustTorusModel(4, 3, 16, v.opt).Model,
		} {
			if _, err := m.SaturationLoad(); err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.name, err)
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := m.SaturationLoad(); err != nil {
					t.Fatal(err)
				}
			})
			// Exact without the race detector only: a search takes dozens
			// of pooled workspaces, and sync.Pool drops Puts under it.
			if got != 0 && !race.Enabled {
				t.Errorf("%s %s: SaturationLoad allocates %v times, want 0", m.Name(), v.name, got)
			}
		}
	}
}

// TestPredictAllocs: Predict answers what Latency answers — the same
// latency on a stable point, saturated exactly where Latency returns
// core.ErrUnstable — and allocates nothing on either side of saturation.
func TestPredictAllocs(t *testing.T) {
	for _, v := range goldenVariants {
		for _, m := range []*Model{
			&MustFatTreeModel(1024, 16, v.opt).Model,
			&MustHypercubeModel(8, 16, v.opt).Model,
			&MustTorusModel(4, 3, 16, v.opt).Model,
		} {
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name(), v.name, err)
			}
			for _, frac := range []float64{0.5, 1.02, 4} {
				lambda0 := frac * sat / m.MsgFlits()
				want, errL := m.Latency(lambda0)
				lat, saturated, err := m.Predict(lambda0)
				if err != nil || saturated != core.IsUnstable(errL) || lat != want {
					t.Errorf("%s %s at %v×: Predict %+v saturated=%v (%v), Latency %+v (%v)", m.Name(), v.name, frac, lat, saturated, err, want, errL)
				}
				got := testing.AllocsPerRun(100, func() { m.Predict(lambda0) })
				if got > allocBudget(0) {
					t.Errorf("%s %s at %v×: Predict allocates %v times, want 0", m.Name(), v.name, frac, got)
				}
			}
		}
	}
}
