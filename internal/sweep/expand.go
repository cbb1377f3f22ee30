package sweep

import (
	"repro/internal/eval"
	"repro/internal/sim"
)

// The scenario domain types live in package eval (they are the currency
// of the Evaluator backend API); sweep re-exports them so specs, rows
// and results keep reading naturally.
type (
	// Topology identifies one concrete network instance of a sweep.
	Topology = eval.Topology
	// Load is one load point of a scenario.
	Load = eval.Load
	// Variant selects a model ablation for part of the grid.
	Variant = eval.Variant
	// Scenario is one fully determined cell of a sweep grid.
	Scenario = eval.Scenario
	// Budget scales the simulation effort of every scenario in a spec.
	Budget = eval.Budget
)

// Topology families understood by TopologySpec.Family (see the eval
// package for their semantics).
const (
	FamilyBFT       = eval.FamilyBFT
	FamilyHypercube = eval.FamilyHypercube
	FamilyTorus     = eval.FamilyTorus
)

// Expand turns a validated spec into its deterministic scenario list:
// topologies × sizes × message lengths × policies × variants × workloads
// × loads, in declaration order, with exact duplicate cells (same cache
// key) dropped on all but their first appearance.
func Expand(s Spec) ([]Scenario, error) {
	scens, _, err := ExpandKeyed(s)
	return scens, err
}

// maxPresize caps how many cells ExpandKeyed reserves room for up front;
// larger grids grow by appending.
const maxPresize = 1 << 16

// ExpandKeyed is Expand returning every scenario with its cache key:
// keys[i] == scens[i].Key(). Deduplication has to build each key anyway;
// handing them on lets the runner, the dispatcher and the shard-side
// range handler address caches, spans and observers without building a
// cell's key again.
func ExpandKeyed(s Spec) (scens []Scenario, keys []string, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	var loads []Load
	if fr := s.Loads.fracs(); fr != nil {
		for _, f := range fr {
			loads = append(loads, Load{Frac: true, Value: f})
		}
	} else {
		for _, f := range s.Loads.Flits {
			loads = append(loads, Load{Value: f})
		}
	}
	policies := make([]sim.UpLinkPolicy, len(s.policies()))
	for i, name := range s.policies() {
		if policies[i], err = sim.ParsePolicy(name); err != nil {
			return nil, nil, err
		}
	}
	variants, workloads := s.variants(), s.workloads()
	n := min(s.cells(), maxPresize)
	scens, keys = make([]Scenario, 0, n), make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for _, ts := range s.Topologies {
		topo := Topology{Family: ts.Family}
		if ts.Family == FamilyTorus {
			topo.K = ts.K
		}
		for _, size := range ts.Sizes {
			topo.Size = size
			for _, flits := range s.MsgFlits {
				for _, pol := range policies {
					for _, v := range variants {
						for _, wl := range workloads {
							for li, load := range loads {
								sc := Scenario{
									Index:     len(scens),
									Topology:  topo,
									MsgFlits:  flits,
									Policy:    pol,
									Load:      load,
									Variant:   v,
									LoadIndex: li,
									WithSim:   s.withSim() && (len(s.Variants) == 0 || v.WithSim),
									Budget:    s.Budget,
									Workload:  wl,
									// The bound calculus ignores model variants (it
									// always bounds the paper's model), so every cell
									// of the grid carries the bit.
									WithBounds: s.wantBounds(),
								}
								key := sc.Key()
								if _, dup := seen[key]; !dup {
									seen[key] = struct{}{}
									scens, keys = append(scens, sc), append(keys, key)
								}
							}
						}
					}
				}
			}
		}
	}
	return scens, keys, nil
}
