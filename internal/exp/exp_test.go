package exp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// tiny keeps experiment tests fast.
var tiny = sweep.Budget{Warmup: 1000, Measure: 6000, Seed: 3}

func newTestRunner() *sweep.Runner {
	return sweep.NewRunner(sweep.WithWorkers(2), sweep.WithCache(sweep.NewCache()))
}

// runEntry runs the table entry's small-scale spec at the tiny budget,
// after edit (if any) has shrunk it, and returns the executed sweep with
// its rendering.
func runEntry(t *testing.T, id string, edit func(*sweep.Spec)) (*sweep.Result, Output) {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := e.Spec("small", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&spec)
	}
	out, err := e.RunSpec(context.Background(), newTestRunner(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out.JSON.(*sweep.Result), out
}

func TestLoadsUpTo(t *testing.T) {
	m := analytic.MustFatTreeModel(64, 16, core.Options{})
	loads, err := LoadsUpTo(&m.Model, 5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 5 {
		t.Fatalf("got %d loads", len(loads))
	}
	sat, _ := m.SaturationLoad()
	for i, l := range loads {
		if l <= 0 || l > 0.9*sat+1e-12 {
			t.Errorf("load[%d] = %v outside (0, %v]", i, l, 0.9*sat)
		}
		if i > 0 && l <= loads[i-1] {
			t.Errorf("loads not increasing at %d", i)
		}
	}
	if math.Abs(loads[4]-0.9*sat) > 1e-12 {
		t.Errorf("top load %v, want %v", loads[4], 0.9*sat)
	}
}

func TestCompareCurveModelOnly(t *testing.T) {
	m := analytic.MustFatTreeModel(64, 16, core.Options{})
	pts, err := CompareCurve(&m.Model, nil, 16, []float64{0.02, 0.05}, tiny, sim.PairQueue)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !math.IsNaN(p.Sim) {
			t.Errorf("sim should be NaN in model-only mode: %v", p.Sim)
		}
		if p.Model <= 0 {
			t.Errorf("model latency %v", p.Model)
		}
	}
	if !math.IsNaN(pts[0].RelErr()) {
		t.Error("RelErr with NaN sim should be NaN")
	}
}

func TestCompareCurveWithSim(t *testing.T) {
	m := analytic.MustFatTreeModel(16, 8, core.Options{})
	net := topology.MustFatTree(16)
	sat, err := m.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := CompareCurve(&m.Model, net, 8, []float64{0.4 * sat}, tiny, sim.PairQueue)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if math.IsNaN(p.Sim) || p.SimSaturated {
		t.Fatalf("sim did not produce a latency: %+v", p)
	}
	if e := p.RelErr(); math.IsNaN(e) || e > 0.25 {
		t.Errorf("model and sim disagree badly at mid load: model=%v sim=%v", p.Model, p.Sim)
	}
}

func TestCompareCurveMarksModelSaturation(t *testing.T) {
	m := analytic.MustFatTreeModel(64, 16, core.Options{})
	sat, _ := m.SaturationLoad()
	pts, err := CompareCurve(&m.Model, nil, 16, []float64{2 * sat}, tiny, sim.PairQueue)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pts[0].Model, 1) {
		t.Errorf("model latency above saturation = %v, want +Inf", pts[0].Model)
	}
}

func TestFigure3SmallScale(t *testing.T) {
	sw, out := runEntry(t, "F3", func(s *sweep.Spec) {
		s.Topologies[0].Sizes = []int{64}
		s.MsgFlits = []int{8, 16}
		s.Loads = sweep.LoadSpec{Points: 4, MaxFrac: 0.85}
	})
	curves := sw.ByCurve()
	if len(curves) != 2 {
		t.Fatalf("%d curves, want 2", len(curves))
	}
	for ci, pts := range curves {
		c := sw.Curves[ci]
		if len(pts) != 4 {
			t.Fatalf("s=%d: %d points", c.MsgFlits, len(pts))
		}
		// Monotone model curve, sim present.
		for i, p := range pts {
			if math.IsNaN(p.Sim) {
				t.Errorf("s=%d point %d missing sim", c.MsgFlits, i)
			}
			if i > 0 && p.Model <= pts[i-1].Model {
				t.Errorf("s=%d: model curve not increasing", c.MsgFlits)
			}
		}
		if c.SaturationLoad <= 0 {
			t.Errorf("s=%d: saturation %v", c.MsgFlits, c.SaturationLoad)
		}
		m := analytic.MustFatTreeModel(64, float64(c.MsgFlits), core.Options{})
		unloaded := fmt.Sprintf("%-9d  %.1f ", c.MsgFlits, float64(c.MsgFlits)+m.AvgDist()-1)
		if !strings.Contains(out.Text, unloaded) {
			t.Errorf("s=%d: summary row %q (s + D - 1) missing:\n%s", c.MsgFlits, unloaded, out.Text)
		}
	}
	for _, want := range []string{"Figure 3", "64-processor", "Loadrate", "Latency",
		"Model 8-flit", "Experiment 16-flit", "model saturation"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("figure missing %q", want)
		}
	}
	if !strings.HasPrefix(out.CSV, "load_flits_per_cycle,Model 8-flit,Experiment 8-flit,") ||
		len(strings.Split(out.CSV, "\n")) < 4 {
		t.Errorf("CSV malformed:\n%s", out.CSV)
	}
}

func TestValidationGridSmall(t *testing.T) {
	sw, out := runEntry(t, "T1", func(s *sweep.Spec) {
		s.Topologies[0].Sizes = []int{16, 64}
		s.MsgFlits = []int{8}
		s.Loads = sweep.LoadSpec{Fracs: []float64{0.3, 0.6}}
	})
	if len(sw.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(sw.Rows))
	}
	for _, r := range sw.Rows {
		if math.IsNaN(r.Sim) || r.Model <= 0 {
			t.Errorf("bad row: %+v", r)
		}
		if e := r.RelErr(); e > 0.3 {
			t.Errorf("%s s=%d frac=%v: rel err %.1f%% implausibly high",
				r.Scenario.Topology, r.Scenario.MsgFlits, r.Scenario.Load.Value, e*100)
		}
	}
	// Header, rule and one line per cell.
	if n := strings.Count(out.Text, "\n"); n != 6 {
		t.Errorf("table has %d lines, want 6:\n%s", n, out.Text)
	}
	if !strings.Contains(out.Text, "rel err") || !strings.Contains(out.Note, "4 cells") {
		t.Errorf("table header or note wrong: %q\n%s", out.Note, out.Text)
	}
}

func TestSaturationTableSmall(t *testing.T) {
	sw, out := runEntry(t, "T2", func(s *sweep.Spec) {
		s.Topologies[0].Sizes = []int{16}
		s.MsgFlits = []int{8}
	})
	if len(sw.Curves) != 1 {
		t.Fatalf("curves = %d", len(sw.Curves))
	}
	sat := sw.Curves[0].SaturationLoad
	if sat <= 0 {
		t.Fatalf("model saturation %v", sat)
	}
	// The simulator must sustain 80% of the model's saturation and fail
	// by 130%; the table's two bracket columns say so.
	rows := sw.Rows
	if rows[0].SimSaturated {
		t.Errorf("sim saturated at %v, 80%% of model %v", rows[0].LoadFlits, sat)
	}
	if last := rows[len(rows)-1]; !last.SimSaturated || last.LoadFlits > 1.31*sat {
		t.Errorf("sim not saturated by %v (model %v)", last.LoadFlits, sat)
	}
	if !strings.Contains(out.Text, "model sat") || strings.Contains(out.Text, "NaN") {
		t.Errorf("render missing header or bracket:\n%s", out.Text)
	}
}

func TestAblationsOrdering(t *testing.T) {
	sw, out := runEntry(t, "A1/A2", nil)
	curves := sw.ByCurve()
	if len(curves) != 4 {
		t.Fatalf("%d variants, want 4", len(curves))
	}
	base, noBlock, single, noPair := curves[0], curves[1], curves[2], curves[3]
	for i := range base {
		if !(noBlock[i].Model > base[i].Model) {
			t.Errorf("point %d: A1 %v should exceed base %v", i, noBlock[i].Model, base[i].Model)
		}
		if !(single[i].Model > base[i].Model) {
			t.Errorf("point %d: A2 %v should exceed base %v", i, single[i].Model, base[i].Model)
		}
		if !(noPair[i].Model < base[i].Model) {
			t.Errorf("point %d: pre-erratum %v should be below base %v", i, noPair[i].Model, base[i].Model)
		}
	}
	header, _, _ := strings.Cut(out.Text, "\n")
	for _, col := range []string{"simulation", "paper model", "A1: no blocking correction",
		"A2: up-links as 2x M/G/1", "pre-erratum M/G/2 rate"} {
		if !strings.Contains(header, col) {
			t.Errorf("ablation table missing column %q: %s", col, header)
		}
	}
	if strings.Contains(out.Text, "NaN") {
		t.Errorf("ablation table lost its simulation reference:\n%s", out.Text)
	}
}

func TestPolicyComparisonSmall(t *testing.T) {
	sw, out := runEntry(t, "A3", nil)
	curves := sw.ByCurve()
	if len(curves) != 2 || len(curves[0]) != 4 {
		t.Fatalf("grid shape %d curves x %d loads", len(curves), len(curves[0]))
	}
	// At the highest probed load the pair queue must win clearly.
	pair, fixed := curves[0][3], curves[1][3]
	if pair.Scenario.Policy != sim.PairQueue || fixed.Scenario.Policy != sim.RandomFixed {
		t.Fatalf("policy order: %v, %v", pair.Scenario.Policy, fixed.Scenario.Policy)
	}
	if pair.Sim >= fixed.Sim {
		t.Errorf("pair-queue %v should beat random-fixed %v at %.4f flits/cyc",
			pair.Sim, fixed.Sim, pair.LoadFlits)
	}
	lines := strings.Split(strings.TrimSpace(out.Text), "\n")
	top := strings.Fields(lines[len(lines)-1])
	if !strings.Contains(lines[0], "pair-queue") || len(lines) != 6 ||
		top[0] != fmt.Sprintf("%.4f", pair.LoadFlits) || top[1] != fmt.Sprintf("%.2f", pair.Sim) ||
		top[3] != fmt.Sprintf("%.2f", fixed.Sim) {
		t.Errorf("policy table header or top-load row wrong:\n%s", out.Text)
	}
}

func TestHypercubeExperimentSmall(t *testing.T) {
	sw, out := runEntry(t, "X1", nil)
	sat := sw.Curves[0].SaturationLoad
	if len(sw.Rows) != 6 || !(sat > 0) {
		t.Fatalf("bad result: %d rows, saturation %v", len(sw.Rows), sat)
	}
	for i, p := range sw.Rows {
		if math.IsNaN(p.Sim) {
			t.Errorf("point %d missing sim", i)
		}
		t.Logf("hcube point %d: load=%.4f model=%.2f sim=%.2f (err %.1f%%)",
			i, p.LoadFlits, p.Model, p.Sim, p.RelErr()*100)
		// The knee (top of the sweep) legitimately diverges — the paper's
		// own curves do the same at saturation — so only the sub-knee
		// points carry a tolerance.
		if e := p.RelErr(); p.LoadFlits < 0.6*sat && e > 0.3 {
			t.Errorf("point %d: rel err %.1f%%", i, e*100)
		}
	}
	if !strings.Contains(out.Text, "model L") || !strings.Contains(out.Note, "6-cube saturation") {
		t.Errorf("hypercube table header or note wrong: %q", out.Note)
	}
}

func TestTorusConsistencyX2(t *testing.T) {
	e, err := Lookup("X2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), nil, "small", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.JSON.([]TorusRow)
	if len(rows) != 6 {
		t.Errorf("rows = %d", len(rows))
	}
	// Two implementations of the same equations agree to round-off: the
	// k = 2 graph is acyclic, so core resolves it in the closed form's
	// own backward order, about 1e-16 relative apart.
	for _, r := range rows {
		if d := math.Abs(r.Hypercube-r.Torus) / r.Hypercube; !(d <= 1e-12) {
			t.Errorf("k=2 torus deviates from the hypercube closed form by %v (relative) at load %v", d, r.LoadFlits)
		}
	}
}
