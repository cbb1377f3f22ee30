// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation and extension experiments of DESIGN.md:
// BenchmarkExperiment/<ID> runs one entry of the experiment table
// (exp.All: F3, T1, T2, A1/A2, A3, X1, X2, V1) at paper scale.
//
// Simulation-backed entries use the Quick budget so the whole suite runs
// in seconds; set REPRO_BENCH_FULL=1 for report-quality windows.
// Micro-benchmarks at the bottom cover the hot paths (queueing formulas,
// model resolution, simulator cycles).
package repro_test

import (
	"context"
	"os"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

func budget() sweep.Budget {
	if os.Getenv("REPRO_BENCH_FULL") != "" {
		return sweep.Full
	}
	return sweep.Quick
}

// BenchmarkExperiment regenerates each experiment of the table on a
// fresh, cache-less runner, so every iteration computes its whole grid.
func BenchmarkExperiment(b *testing.B) {
	for i := range exp.All {
		e := &exp.All[i]
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(context.Background(), sweep.NewRunner(), "paper", budget())
				if err != nil {
					b.Fatal(err)
				}
				if out.Text == "" {
					b.Fatal("empty artifact")
				}
			}
		})
	}
}

// --- Micro-benchmarks on the hot paths ---

// BenchmarkAblationServers isolates the model-side A2 comparison at a
// fixed operating point (no simulation), for quick iteration on the
// multi-server treatment.
func BenchmarkAblationServers(b *testing.B) {
	base := analytic.MustFatTreeModel(1024, 32, core.Options{})
	single := analytic.MustFatTreeModel(1024, 32, core.Options{SingleServerGroups: true})
	sat, err := base.SaturationLoad()
	if err != nil {
		b.Fatal(err)
	}
	lambda := 0.6 * sat / 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb, err := base.Latency(lambda)
		if err != nil {
			b.Fatal(err)
		}
		ls, err := single.Latency(lambda)
		if err != nil {
			b.Fatal(err)
		}
		if ls.Total <= lb.Total {
			b.Fatal("A2 ordering violated")
		}
	}
}

func BenchmarkWaitMG1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		queueing.WaitWormholeMG1(0.002, 20, 16)
	}
}

func BenchmarkWaitMG2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		queueing.WaitWormholeMGm(2, 0.004, 20, 16)
	}
}

func BenchmarkFatTreeModelClosedForm(b *testing.B) {
	m := analytic.MustFatTreeModel(1024, 16, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Latency(0.002); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFatTreeModelCoreGraph resolves the paper model's channel graph
// two ways: rebuild declares a core.Model at λ₀ and resolves it (compile
// and workspace per call — the BuildCoreModel/(*Model).Resolve wrappers),
// compiled writes rates into the graph the model built once and resolves
// from a pooled workspace (what Latency does for the ablation variants;
// ChannelStats, which always takes the graph, adds only its report slice).
func BenchmarkFatTreeModelCoreGraph(b *testing.B) {
	b.Run("rebuild", func(b *testing.B) {
		m := analytic.MustFatTreeModel(1024, 16, core.Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.BuildCoreModel(0.002).Resolve(core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		m := analytic.MustFatTreeModel(1024, 16, core.Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ChannelStats(nil, 0.002); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTorusLatency is one point of a cyclic channel graph (4-ary
// 3-cube at 70% of saturation): the fixed point iterates, so this is the
// solver's inner loop.
func BenchmarkTorusLatency(b *testing.B) {
	m := analytic.MustTorusModel(4, 3, 16, core.Options{})
	sat, err := m.SaturationLoad()
	if err != nil {
		b.Fatal(err)
	}
	lambda := 0.7 * sat / 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Latency(lambda); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyFatTree1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewFatTree(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCycles reports simulator speed on the paper's
// 1024-processor configuration at a moderate load: sim.Run on an engine
// the process has parked, reset in place. internal/sim's BenchmarkColdRun
// times the same run on a newly built engine.
func BenchmarkSimulatorCycles(b *testing.B) {
	cfg := sim.Config{
		Net:           topology.MustFatTree(1024),
		MsgFlits:      16,
		Seed:          9,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
	}.FlitLoad(0.02)
	if _, err := sim.Run(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles/op")
	}
}

// BenchmarkSweepTable2 runs the paper's validation grid through the
// declarative sweep engine (expansion, worker pool, cache) end to end.
func BenchmarkSweepTable2(b *testing.B) {
	spec, err := sweep.Builtin("table2")
	if err != nil {
		b.Fatal(err)
	}
	spec.Budget = budget()
	for i := 0; i < b.N; i++ {
		if _, err := (&sweep.Runner{}).Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepModelGrid runs a model-only fat-tree grid over the four
// ablation variants (1,536 cells) on a cached runner: cold is a fresh
// runner and cache per iteration — expansion, curve set-up, model builds,
// Eq. 26 searches and every cell — warm re-runs the grid on a runner
// whose cache already holds it.
func BenchmarkSweepModelGrid(b *testing.B) {
	spec := sweep.Spec{
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64, 256, 1024}}},
		MsgFlits:   []int{8, 16, 32},
		Variants: []sweep.Variant{
			{Name: "paper"},
			{Name: "no-blocking", NoBlockingCorrection: true},
			{Name: "single-server", SingleServerGroups: true},
			{Name: "pre-erratum", NoPairRateCorrection: true},
		},
		Loads: sweep.LoadSpec{Points: 32, MaxFrac: 0.98},
	}
	run := func(b *testing.B, r *sweep.Runner) int {
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		return len(res.Rows)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += run(b, sweep.NewRunner(sweep.WithCache(sweep.NewCache())))
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	})
	b.Run("warm", func(b *testing.B) {
		r := sweep.NewRunner(sweep.WithCache(sweep.NewCache()))
		run(b, r)
		b.ReportAllocs()
		b.ResetTimer()
		cells := 0
		for i := 0; i < b.N; i++ {
			cells += run(b, r)
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
	})
}

// BenchmarkSweepExpand measures pure grid expansion: a 3×3×2×10 spec
// with cache-key hashing, no execution.
func BenchmarkSweepExpand(b *testing.B) {
	spec := sweep.Spec{
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}}},
		MsgFlits:   []int{16, 32, 64},
		Policies:   []string{"pairqueue", "randomfixed"},
		Loads:      sweep.LoadSpec{Points: 10, MaxFrac: 0.95},
		WithSim:    true,
		Budget:     sweep.Quick,
	}
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Expand(spec); err != nil {
			b.Fatal(err)
		}
	}
}
