package core_test

import (
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
)

// BenchmarkCyclicKernel times the damped fixed point where the Eq. 26
// search spends its sweeps: the 4-ary 3-cube and 4-cube at 0.9999 of
// their saturation load, one Resolve per iteration on a warm workspace.
// It reports the time per sweep and the sweeps per solve. The 0.5 case
// is the skip lists' worst: at half load every class moves in nearly
// every sweep, so the kernel skips nothing and only pays for tracking.
func BenchmarkCyclicKernel(b *testing.B) {
	for _, dims := range []int{3, 4} {
		m := analytic.MustTorusModel(4, dims, 16, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			b.Fatal(err)
		}
		for _, frac := range []float64{0.5, 0.9999} {
			b.Run(fmt.Sprintf("%s/%v", m.Name(), frac), func(b *testing.B) {
				lambda0 := frac * sat / m.MsgFlits()
				var ws core.Workspace
				if err := m.Resolve(&ws, lambda0); err != nil {
					b.Fatal(err)
				}
				sweeps := ws.Iterations
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.Resolve(&ws, lambda0); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweeps), "ns/sweep")
				b.ReportMetric(float64(sweeps), "sweeps")
			})
		}
	}
}
