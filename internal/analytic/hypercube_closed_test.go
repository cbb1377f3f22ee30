package analytic

import (
	"math"
	"testing"

	"repro/internal/core"
)

// The closed-form backward sweep and the generic channel-graph solver are
// independent implementations of the hypercube instance and must agree,
// exactly as the fat-tree's two implementations must: the graph is
// acyclic, so both walk it backwards once and differ only in round-off.
func TestHypercubeClosedFormMatchesCoreGraph(t *testing.T) {
	for _, dims := range []int{1, 3, 6, 9} {
		m := MustHypercubeModel(dims, 16, core.Options{})
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		for _, frac := range []float64{0, 0.2, 0.5, 0.8} {
			lambda0 := frac * sat / 16
			cf, err1 := m.ClosedForm(lambda0)
			cg, err2 := m.Latency(lambda0)
			if err1 != nil || err2 != nil {
				t.Fatalf("dims=%d frac=%v: closed err=%v, graph err=%v", dims, frac, err1, err2)
			}
			if relDiff(cf.Total, cg.Total) > 1e-12 {
				t.Errorf("dims=%d frac=%v: closed %v vs graph %v", dims, frac, cf.Total, cg.Total)
			}
			if relDiff(cf.ServiceInj, cg.ServiceInj) > 1e-12 {
				t.Errorf("dims=%d frac=%v: x̄ closed %v vs graph %v",
					dims, frac, cf.ServiceInj, cg.ServiceInj)
			}
		}
	}
}

func TestHypercubeClosedFormUnstable(t *testing.T) {
	m := MustHypercubeModel(6, 16, core.Options{})
	sat, err := m.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ClosedForm(3 * sat / 16); err == nil {
		t.Error("closed form accepted a load far above saturation")
	}
}

func TestHypercubeClosedFormGuards(t *testing.T) {
	m := MustHypercubeModel(4, 16, core.Options{})
	if _, err := m.ClosedForm(math.NaN()); err == nil {
		t.Error("accepted NaN rate")
	}
	if _, err := m.ClosedForm(-1); err == nil {
		t.Error("accepted negative rate")
	}
	ablated := MustHypercubeModel(4, 16, core.Options{NoBlockingCorrection: true})
	if _, err := ablated.ClosedForm(0.001); err == nil {
		t.Error("accepted ablation options")
	}
	if _, err := MustTorusModel(4, 2, 16, core.Options{}).ClosedForm(0.001); err == nil {
		t.Error("accepted k != 2")
	}
}
