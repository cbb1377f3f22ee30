package exp

// The tests in this file pin the table's sweep path against the direct
// computation the experiment drivers used before they became sweep
// specs: one CompareCurve per curve — the model's Latency and sim.Run
// called straight, no eval backends, no runner. Model values must agree
// inside 1e-9 and simulation values exactly (the spec feeds the
// simulator the same absolute loads and per-point seeds, so a same-seed
// run is bit-identical).

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// refCurve is one curve computed directly.
type refCurve struct {
	sat float64
	pts []ComparisonPoint
}

// reference computes the spec's grid curve by curve with CompareCurve,
// resolving fractional loads against the base model's saturation.
func reference(t *testing.T, spec sweep.Spec) []refCurve {
	t.Helper()
	scens, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []refCurve
	for start := 0; start < len(scens); {
		first := scens[start]
		end := start
		for end < len(scens) && scens[end].CurveKey() == first.CurveKey() {
			end++
		}
		flits := float64(first.MsgFlits)
		var base, model *analytic.Model
		var net topology.Network
		switch first.Topology.Family {
		case sweep.FamilyBFT:
			base = &analytic.MustFatTreeModel(first.Topology.Size, flits, core.Options{}).Model
			model = &analytic.MustFatTreeModel(first.Topology.Size, flits, first.Variant.Options()).Model
			net = topology.MustFatTree(first.Topology.Size)
		case sweep.FamilyHypercube:
			m, err := analytic.NewHypercubeModel(first.Topology.Size, flits, first.Variant.Options())
			if err != nil {
				t.Fatal(err)
			}
			base, model = &m.Model, &m.Model
			if net, err = topology.NewHypercube(first.Topology.Size); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("no reference for family %q", first.Topology.Family)
		}
		sat, err := base.SaturationLoad()
		if err != nil {
			t.Fatal(err)
		}
		var loads []float64
		for _, sc := range scens[start:end] {
			load := sc.Load.Value
			if sc.Load.Frac {
				load *= sat
			}
			loads = append(loads, load)
		}
		if !first.WithSim {
			net = nil
		}
		pts, err := CompareCurve(model, net, first.MsgFlits, loads, spec.Budget, first.Policy)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refCurve{sat: sat, pts: pts})
		start = end
	}
	return out
}

// checkMatchesReference runs the entry's small-scale spec (shrunk by
// edit, if any) through the sweep engine and compares every cell and
// every curve's saturation load with the direct computation.
func checkMatchesReference(t *testing.T, id string, edit func(*sweep.Spec)) {
	t.Helper()
	sw, _ := runEntry(t, id, edit)
	want := reference(t, sw.Spec)
	got := sw.ByCurve()
	if len(got) != len(want) {
		t.Fatalf("curves: %d vs %d", len(got), len(want))
	}
	for ci, ref := range want {
		if math.Abs(sw.Curves[ci].SaturationLoad-ref.sat) > 1e-12 {
			t.Errorf("curve %d saturation: %v vs %v", ci, sw.Curves[ci].SaturationLoad, ref.sat)
		}
		if len(got[ci]) != len(ref.pts) {
			t.Fatalf("curve %d points: %d vs %d", ci, len(got[ci]), len(ref.pts))
		}
		for i, w := range ref.pts {
			g := got[ci][i]
			if math.Abs(g.LoadFlits-w.LoadFlits) > 1e-9 {
				t.Errorf("curve %d point %d load: %v vs %v", ci, i, g.LoadFlits, w.LoadFlits)
			}
			if math.IsInf(w.Model, 1) != math.IsInf(g.Model, 1) ||
				(!math.IsInf(w.Model, 1) && math.Abs(g.Model-w.Model) > 1e-9) {
				t.Errorf("curve %d point %d model: %v vs %v", ci, i, g.Model, w.Model)
			}
			if math.IsNaN(w.Sim) != math.IsNaN(g.Sim) ||
				(!math.IsNaN(w.Sim) && (g.Sim != w.Sim || g.SimCI != w.SimCI || g.SimSaturated != w.SimSaturated)) {
				t.Errorf("curve %d point %d sim: (%v ±%v) vs (%v ±%v)", ci, i, g.Sim, g.SimCI, w.Sim, w.SimCI)
			}
		}
	}
}

// TestFigure3MatchesSweepSpec pins F3's Points/MaxFrac grid.
func TestFigure3MatchesSweepSpec(t *testing.T) {
	checkMatchesReference(t, "F3", func(s *sweep.Spec) {
		s.Topologies[0].Sizes = []int{64}
		s.MsgFlits = []int{8, 16}
		s.Loads = sweep.LoadSpec{Points: 3, MaxFrac: 0.8}
	})
}

// TestValidationGridMatchesSweepSpec pins T1's fractional-load grid.
func TestValidationGridMatchesSweepSpec(t *testing.T) {
	checkMatchesReference(t, "T1", func(s *sweep.Spec) {
		s.Topologies[0].Sizes = []int{16, 64}
		s.MsgFlits = []int{8}
		s.Loads = sweep.LoadSpec{Fracs: []float64{0.3, 0.6}}
	})
}

// TestAblationsMatchPreRefactor pins A1/A2: every variant's model column
// and the shared simulated reference.
func TestAblationsMatchPreRefactor(t *testing.T) { checkMatchesReference(t, "A1/A2", nil) }

// TestPolicyComparisonMatchesPreRefactor pins A3.
func TestPolicyComparisonMatchesPreRefactor(t *testing.T) { checkMatchesReference(t, "A3", nil) }

// TestHypercubeMatchesPreRefactor pins X1.
func TestHypercubeMatchesPreRefactor(t *testing.T) { checkMatchesReference(t, "X1", nil) }

// TestSaturationSpecDump sanity-checks the T2 spec (its sim values
// legitimately shifted at noise level when it became a sweep — each
// probe derives its own seed — so T2 pins the spec shape rather than
// numbers against the hand-rolled driver; see CHANGES.md).
func TestSaturationSpecDump(t *testing.T) {
	spec, err := saturationSpec("small", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Budget.DrainLimit != tiny.Measure {
		t.Errorf("drain limit %d, want %d", spec.Budget.DrainLimit, tiny.Measure)
	}
	scens, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 3*3*4 {
		t.Fatalf("scenarios = %d, want 36", len(scens))
	}
}
