package analytic

import (
	"testing"

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
