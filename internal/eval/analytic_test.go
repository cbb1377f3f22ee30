package eval

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/workload"
)

// TestSaturationSearchedOnce: however many goroutines touch a fresh
// curve at the same moment — through SaturationLoad, ResolveLoad, Curve
// or Evaluate, on the base variant or an ablation — its anchor is
// searched exactly once and everyone sees the same value.
func TestSaturationSearchedOnce(t *testing.T) {
	b := NewAnalyticBackend()
	topo := Topology{Family: FamilyTorus, Size: 3, K: 4} // a slow search: the graph is cyclic
	sc := Scenario{Topology: topo, MsgFlits: 16, Load: Load{Frac: true, Value: 0.5}}
	ablated := sc
	ablated.Variant = Variant{Name: "no-blocking", NoBlockingCorrection: true}

	before := analytic.SaturationSearches()
	const n = 16
	loads := make([]float64, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			switch i % 4 {
			case 0:
				var sat float64
				sat, errs[i] = b.SaturationLoad(topo, 16)
				loads[i] = sat * 0.5
			case 1:
				loads[i], errs[i] = b.ResolveLoad(sc)
			case 2:
				var pt Point
				pt, errs[i] = b.Evaluate(context.Background(), ablated)
				loads[i] = pt.LoadFlits
			default:
				var cd CurveDesc
				cd, errs[i] = b.Curve(context.Background(), ablated)
				loads[i] = cd.SaturationLoad * 0.5
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range loads {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if loads[i] != loads[0] || !(loads[i] > 0) {
			t.Fatalf("goroutine %d resolved load %v, goroutine 0 %v", i, loads[i], loads[0])
		}
	}
	if got := analytic.SaturationSearches() - before; got != 1 {
		t.Errorf("%d goroutines on one fresh curve ran %d saturation searches, want 1", n, got)
	}
}

// TestKeyAllocs: building a scenario key is one allocation — the string —
// with or without the optional sim and variant fields.
func TestKeyAllocs(t *testing.T) {
	plain := bftScenario(false)
	full := bftScenario(true)
	full.Topology.Size = 4096
	full.Variant = Variant{Name: "pre-erratum", NoPairRateCorrection: true}
	full.Budget = Budget{Warmup: 30000, Measure: 200000, Seed: 1 << 40, DrainLimit: 12345, Precision: 0.05, Replicas: 4}
	full.WithBounds = true
	for _, sc := range []Scenario{plain, full} {
		var n int
		if got := testing.AllocsPerRun(200, func() { n += len(sc.Key()) }); got != 1 {
			t.Errorf("Key() allocates %v times, want 1 (%s)", got, sc.Key())
		}
	}
	// A workload key longer than the stack buffer still comes out whole.
	long := plain
	long.Workload = &workload.Spec{Trace: string(make([]byte, 300))}
	if key := long.Key(); len(key) < 300 {
		t.Errorf("long workload key truncated to %d bytes", len(key))
	}
}

// TestAnalyticEvaluateAllocs: a memoized curve answers a cell without
// allocating — model lookup, load anchor and latency included.
func TestAnalyticEvaluateAllocs(t *testing.T) {
	b := NewAnalyticBackend()
	ctx := context.Background()
	sc := bftScenario(false)
	ablated := sc
	ablated.Variant = Variant{Name: "single-server", SingleServerGroups: true}
	for _, sc := range []Scenario{sc, ablated} {
		if _, err := b.Evaluate(ctx, sc); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := b.Evaluate(ctx, sc); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 && !race.Enabled {
			t.Errorf("Evaluate on a memoized curve allocates %v times, want 0 (variant %q)", got, sc.Variant.Name)
		}
	}
}

// curveCells is a run of cells over two slices.
type curveCells struct {
	scens []Scenario
	pts   []Point
}

func (c *curveCells) Len() int { return len(c.scens) }

func (c *curveCells) Cell(j int) (*Scenario, *Point) { return &c.scens[j], &c.pts[j] }

// TestAnalyticCurveAllocs: a memoized curve answers 32 loads in one call
// without allocating — one model lookup, one workspace, every latency —
// and each cell is the one Evaluate answers alone.
func TestAnalyticCurveAllocs(t *testing.T) {
	b := NewAnalyticBackend()
	ctx := context.Background()
	for _, v := range []Variant{{}, {Name: "single-server", SingleServerGroups: true}} {
		cells := &curveCells{scens: make([]Scenario, 32), pts: make([]Point, 32)}
		for j := range cells.scens {
			sc := bftScenario(false)
			sc.Variant, sc.Index, sc.LoadIndex = v, j, j
			sc.Load = Load{Frac: true, Value: 1.2 * float64(j+1) / 32} // the last few saturate
			cells.scens[j] = sc
		}
		answer := func() {
			for j := range cells.pts {
				cells.pts[j] = NewPoint()
			}
			if n, err := b.EvaluateCurve(ctx, cells); n != 32 || err != nil {
				t.Fatalf("EvaluateCurve = %d, %v", n, err)
			}
		}
		answer()
		for j, sc := range cells.scens {
			want, err := b.Evaluate(ctx, sc)
			// %v spells every float exactly, NaN as NaN.
			if err != nil || fmt.Sprintf("%v", want) != fmt.Sprintf("%v", cells.pts[j]) {
				t.Fatalf("variant %q cell %d: curve %+v, Evaluate %+v, %v", v.Name, j, cells.pts[j], want, err)
			}
		}
		got := testing.AllocsPerRun(100, answer)
		budget := 0.0
		if race.Enabled {
			budget = 2 // sync.Pool drops the workspace's Put under the detector
		}
		if got > budget {
			t.Errorf("a 32-load curve allocates %v times, want %v (variant %q)", got, budget, v.Name)
		}
	}
}

// TestCurveEntryAllocs: the backend builds a network once per topology
// and takes each (message length, variant) curve as a view of it, so a
// new curve on a network already built costs at most 2 allocations — its
// entry and its model's name — whether it is a paper curve or an
// ablation beside one.
func TestCurveEntryAllocs(t *testing.T) {
	b := NewAnalyticBackend()
	topo := Topology{Family: FamilyBFT, Size: 1024}
	ablation := Variant{Name: "single-server", SingleServerGroups: true}.Options()
	if _, err := b.entry(topo, 1, core.Options{}); err != nil {
		t.Fatal(err)
	}
	built := obs.Counters()["analytic_models_built_total"]
	for _, tc := range []struct {
		name string
		add  func(flits int) error
	}{
		{"paper", func(flits int) error {
			_, err := b.entry(topo, flits, core.Options{})
			return err
		}},
		{"ablation", func(flits int) error {
			_, err := b.entry(topo, flits, ablation)
			return err
		}},
	} {
		flits := 2
		got := testing.AllocsPerRun(100, func() {
			if err := tc.add(flits); err != nil {
				t.Fatal(err)
			}
			flits++
		})
		t.Logf("a new %s curve: %v allocations", tc.name, got)
		if got > 2 && !race.Enabled {
			t.Errorf("a new %s curve on a built network allocates %v times, want at most 2", tc.name, got)
		}
	}
	if got := obs.Counters()["analytic_models_built_total"] - built; got != 0 {
		t.Errorf("new curves on a built network built %d models, want 0", got)
	}
}
