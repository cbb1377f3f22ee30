package sweep

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// builtins maps the named specs shipped with the engine. Each is a plain
// Spec value — `cmd/sweep -dump builtin:<name>` prints the JSON to use as
// a starting point for custom grids.
var builtins = map[string]Spec{
	// figure3 is the paper's Figure 3 grid: the 1024-processor butterfly
	// fat-tree at 16/32/64-flit messages, ten loads to 95% of saturation,
	// model against simulation. Experiment F3 (exp.All) starts from it,
	// as T1 does from table2.
	"figure3": {
		Name:        "figure3",
		Description: "Paper Figure 3: latency vs load, 1024-PE butterfly fat-tree, s=16/32/64",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{1024}}},
		MsgFlits:    []int{16, 32, 64},
		Loads:       LoadSpec{Points: 10, MaxFrac: 0.95},
		WithSim:     true,
		Budget:      Quick,
	},
	// figure3-small is the same shape at CI scale.
	"figure3-small": {
		Name:        "figure3-small",
		Description: "Figure 3 shape at CI scale: 64-PE fat-tree, s=8/16",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{64}}},
		MsgFlits:    []int{8, 16},
		Loads:       LoadSpec{Points: 4, MaxFrac: 0.85},
		WithSim:     true,
		Budget:      Quick,
	},
	// table2 is the §3.6 validation grid (experiment T1): every machine
	// size and message length of the paper at 20/50/80% of saturation.
	"table2": {
		Name:        "table2",
		Description: "Paper validation grid: N=64/256/1024, s=16/32/64 at 20/50/80% of saturation",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{64, 256, 1024}}},
		MsgFlits:    []int{16, 32, 64},
		Loads:       LoadSpec{Fracs: []float64{0.2, 0.5, 0.8}},
		WithSim:     true,
		Budget:      Quick,
	},
	// policies contrasts the two up-link arbitration disciplines on one
	// curve (experiment A3's axis as a sweep).
	"policies": {
		Name:        "policies",
		Description: "Pair-queue vs random-fixed up-link arbitration, 256-PE fat-tree, s=16",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{256}}},
		MsgFlits:    []int{16},
		Policies:    []string{"pairqueue", "randomfixed"},
		Loads:       LoadSpec{Points: 4, MaxFrac: 0.9},
		WithSim:     true,
		Budget:      Quick,
	},
	// bursty contrasts the paper's steady Poisson workload against an
	// MMPP on-off process of the same mean rate on one curve: the bursty
	// curve saturates earlier (pinned directionally in the tests), which
	// is exactly the regime where the steady-state model stops applying
	// — its cells carry model_na instead of a prediction.
	"bursty": {
		Name:        "bursty",
		Description: "Steady Poisson vs MMPP on-off burst arrivals at equal mean load, 64-PE fat-tree, s=16",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{64}}},
		MsgFlits:    []int{16},
		Workloads: []workload.Spec{
			{Name: "steady"},
			{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		},
		Loads:   LoadSpec{Fracs: []float64{0.3, 0.5, 0.7, 0.85}},
		WithSim: true,
		Budget:  Quick,
	},
	// hotspot skews destinations: 30% of traffic at one hot PE on top of
	// the uniform background, against the uniform baseline.
	"hotspot": {
		Name:        "hotspot",
		Description: "Uniform vs 30%-hotspot destinations, 64-PE fat-tree, s=16 (model n/a on the hotspot curve)",
		Topologies:  []TopologySpec{{Family: FamilyBFT, Sizes: []int{64}}},
		MsgFlits:    []int{16},
		Workloads: []workload.Spec{
			{Name: "uniform"},
			{Name: "hot0", Pattern: workload.PatternHotspot, Hot: []int{0}, HotFrac: 0.3},
		},
		Loads:   LoadSpec{Fracs: []float64{0.3, 0.5, 0.7}},
		WithSim: true,
		Budget:  Quick,
	},
	// families sweeps the model across all three topology families
	// (model-only: the torus has no simulator).
	"families": {
		Name:        "families",
		Description: "Model-only cross-family sweep: fat-tree, hypercube, 4-ary torus",
		Topologies: []TopologySpec{
			{Family: FamilyBFT, Sizes: []int{64, 256, 1024}},
			{Family: FamilyHypercube, Sizes: []int{6, 8, 10}},
			{Family: FamilyTorus, Sizes: []int{3, 4, 5}, K: 4},
		},
		MsgFlits: []int{16, 32, 64},
		Loads:    LoadSpec{Points: 8, MaxFrac: 0.9},
	},
}

// Builtins lists the built-in spec names, sorted.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Builtin returns the named built-in spec. The result is a deep copy:
// callers may tweak its slices without corrupting the registry.
func Builtin(name string) (Spec, error) {
	s, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("sweep: unknown builtin spec %q (have %v)", name, Builtins())
	}
	return s.clone(), nil
}

// clone deep-copies the spec's slices.
func (s Spec) clone() Spec {
	s.Topologies = append([]TopologySpec(nil), s.Topologies...)
	for i := range s.Topologies {
		s.Topologies[i].Sizes = append([]int(nil), s.Topologies[i].Sizes...)
	}
	s.MsgFlits = append([]int(nil), s.MsgFlits...)
	s.Policies = append([]string(nil), s.Policies...)
	s.Variants = append([]Variant(nil), s.Variants...)
	s.Workloads = append([]workload.Spec(nil), s.Workloads...)
	for i := range s.Workloads {
		s.Workloads[i].Hot = append([]int(nil), s.Workloads[i].Hot...)
	}
	s.Loads.Flits = append([]float64(nil), s.Loads.Flits...)
	s.Loads.Fracs = append([]float64(nil), s.Loads.Fracs...)
	return s
}
