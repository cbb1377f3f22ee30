package sweep

import (
	"strings"

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

// keyChunk is the size of the chunks ExpandKeyed cuts a grid's keys from:
// a few dozen keys share each allocation.
const keyChunk = 4 << 10

// keyArena hands out strings cut from fixed strings.Builder chunks. A
// Builder only ever appends, so a string cut from its buffer stays valid
// and unchanged when the chunk is written on or abandoned; a retained key
// pins at most its own chunk.
type keyArena struct {
	chunk strings.Builder
}

// cut copies key into the current chunk and returns it as a slice of the
// chunk. A key that does not fit opens a new chunk of keyChunk bytes, or of
// about what the remaining keys need, each about as long as this one, when
// that is less; a key longer than keyChunk gets a chunk of its own size.
func (a *keyArena) cut(key []byte, remaining int) string {
	if a.chunk.Cap()-a.chunk.Len() < len(key) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(len(key), min(keyChunk, remaining*len(key))))
	}
	start := a.chunk.Len()
	a.chunk.Write(key)
	return a.chunk.String()[start:]
}

// ExpandKeyed is Expand returning every scenario with its cache key, the
// bytes Scenario.Key returns. Deduplication has to build each key anyway;
// handing them on lets the runner, the dispatcher and the shard-side
// range handler address caches, spans and observers without building a
// cell's key again. Each key is written by Scenario.AppendKey into a
// scratch buffer, looked up there, and only a new one is copied into
// keyChunk-sized chunks, so a grid's keys cost a few allocations rather
// than one per cell, and a workload's canonical form is computed once per
// workload.
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
	canonical := make([]string, len(workloads))
	for i, wl := range workloads {
		canonical[i] = wl.Canonical()
	}
	cells := s.cells()
	n := min(cells, maxPresize)
	scens, keys = make([]Scenario, 0, n), make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	var (
		arena   keyArena
		scratch [256]byte
		key     = scratch[:0]
		visited = 0
	)
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
						for wi, wl := range workloads {
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
								visited++
								key = sc.AppendKey(key[:0], canonical[wi])
								if _, dup := seen[string(key)]; !dup {
									k := arena.cut(key, cells-visited+1)
									seen[k] = struct{}{}
									scens, keys = append(scens, sc), append(keys, k)
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
