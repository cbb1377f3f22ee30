package plan

import (
	"fmt"
	"sort"

	"repro/internal/calib"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// builtins maps the named plan specs shipped with the planner. Each is
// a plain Spec value — `cmd/plan -dumpspec builtin:<name>` prints the
// JSON to use as a starting point for custom questions.
var builtins = map[string]Spec{
	// bft-capacity is the paper-scale design question: across the
	// paper's machine sizes and message lengths, which fat-tree
	// sustains the most load under a 60-cycle latency SLO, and at what
	// hardware cost?
	"bft-capacity": {
		Name:        "bft-capacity",
		Description: "Max sustainable load under a 60-cycle SLO: N=64/256/1024, s=16/32",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}}},
			MsgFlits:   []int{16, 32},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxLatency: 60},
	},
	// bft-capacity-small is the same question at CI scale.
	"bft-capacity-small": {
		Name:        "bft-capacity-small",
		Description: "CI-scale capacity question: N=16/64, s=8/16 under a 40-cycle SLO",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxLatency: 40},
	},
	// bursty-capacity asks the CI-scale capacity question, but certifies
	// the frontier under MMPP on-off burst arrivals of the same mean
	// rate: the analytic search anchors at the steady model, and the
	// simulator shows how much of each candidate's headline capacity
	// survives bursty traffic.
	"bursty-capacity": {
		Name:        "bursty-capacity",
		Description: "Capacity under bursty MMPP arrivals (on 25% of the time, 200-cycle bursts): N=16/64, s=16",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxLatency: 60},
		Workload:    &workload.Spec{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
	},
	// cheapest-sla inverts the question: the cheapest machine that
	// sustains a required load inside a latency bound.
	"cheapest-sla": {
		Name:        "cheapest-sla",
		Description: "Cheapest fat-tree sustaining 0.05 flits/cyc/PE under 50 cycles",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}}},
			MsgFlits:   []int{16},
		},
		Objective:   ObjectiveMinCost,
		Constraints: Constraints{MinLoad: 0.05, MaxLatency: 50},
	},
	// cheapest-hard-sla is the hard-real-time variant of cheapest-sla:
	// the cheapest fat-tree whose network-calculus bound — under a (σ, ρ)
	// envelope on the model's mean service times, not a guarantee for
	// Poisson traffic — stays inside the deadline at the required load. Frontier members are certified against both
	// the sim mean and the bound (a mean above the bound voids the
	// certificate).
	"cheapest-hard-sla": {
		Name:        "cheapest-hard-sla",
		Description: "Cheapest fat-tree with a network-calculus latency bound under 3000 cycles at 0.02 flits/cyc/PE",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
		},
		Objective:   ObjectiveMinCost,
		Constraints: Constraints{MinLoad: 0.02, MaxWorstCaseLatency: 3000},
	},
	// calibrated-capacity demonstrates calibration trust-gated
	// certification at CI scale: two policies over one CI-sized fat-tree
	// tie on every analytic axis, so both reach the frontier — and the
	// trust gate decides per region whether the certification simulation
	// is worth running. A store mined from a with-sim sweep covering the
	// pairqueue region makes that region trusted (sim skipped) while the
	// unmined randomfixed region stays uncalibrated (sim escalated); the
	// 0.8 utilization cap pins the operating point at 0.72× saturation,
	// squarely inside the 50-75% load band.
	"calibrated-capacity": {
		Name:        "calibrated-capacity",
		Description: "Trust-gated capacity question: N=64, s=8, both policies, op point capped at 0.72x saturation",
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{8},
			Policies:   []string{"pairqueue", "randomfixed"},
		},
		Objective:   ObjectiveMaxLoad,
		Constraints: Constraints{MaxUtilization: 0.8},
		Calibration: &calib.Gate{MaxMAPE: 0.25, MinPairs: 2},
	},
	// families-frontier compares topology families model-only (the
	// torus has no simulator): lowest latency at a common required
	// load, with stability headroom.
	"families-frontier": {
		Name:        "families-frontier",
		Description: "Cross-family latency frontier at 0.02 flits/cyc/PE (model-only)",
		Space: Space{
			Topologies: []sweep.TopologySpec{
				{Family: sweep.FamilyBFT, Sizes: []int{64, 256, 1024}},
				{Family: sweep.FamilyHypercube, Sizes: []int{6, 8, 10}},
				{Family: sweep.FamilyTorus, Sizes: []int{3, 4, 5}, K: 4},
			},
			MsgFlits: []int{16},
		},
		Objective:   ObjectiveMinLatency,
		Constraints: Constraints{MinLoad: 0.02, MaxUtilization: 0.9},
		SkipCertify: true,
	},
}

// Builtins lists the built-in plan spec names, sorted.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Builtin returns the named built-in plan spec as a deep copy: callers
// may tweak its slices without corrupting the registry.
func Builtin(name string) (Spec, error) {
	s, ok := builtins[name]
	if !ok {
		return Spec{}, fmt.Errorf("plan: unknown builtin spec %q (have %v)", name, Builtins())
	}
	s.Space.Topologies = append([]sweep.TopologySpec(nil), s.Space.Topologies...)
	for i := range s.Space.Topologies {
		s.Space.Topologies[i].Sizes = append([]int(nil), s.Space.Topologies[i].Sizes...)
	}
	s.Space.MsgFlits = append([]int(nil), s.Space.MsgFlits...)
	s.Space.Policies = append([]string(nil), s.Space.Policies...)
	s.Search.PruneFracs = append([]float64(nil), s.Search.PruneFracs...)
	if s.Workload != nil {
		wl := *s.Workload
		wl.Hot = append([]int(nil), wl.Hot...)
		s.Workload = &wl
	}
	if s.Calibration != nil {
		cal := *s.Calibration
		s.Calibration = &cal
	}
	return s, nil
}
