package sweep

import (
	"math"
	"sort"

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
	g, err := ExpandGrid(s)
	if err != nil {
		return nil, err
	}
	return g.Scens, nil
}

// Grid is one expanded sweep: the spec, its cells in expansion order, and
// its curves. A curve is a run of cells sharing one curve key
// (Scenario.AppendCurveKey) and differing only in their eval.Token, so a
// cell's key is its curve's key joined with its token
// (eval.AppendJoinKey) — the one form a cell's key takes inside the
// process is that pair, and the joined key is built only where one
// leaves it.
type Grid struct {
	Spec   Spec
	Scens  []Scenario
	Curves []Curve
}

// Curve is one curve of a Grid: the cells Scens[Start:End], under the
// curve key Key.
type Curve struct {
	Key        string
	Start, End int
}

// curveOf returns the index of the curve holding cell i.
func (g *Grid) curveOf(i int) int {
	return sort.Search(len(g.Curves), func(c int) bool { return g.Curves[c].End > i })
}

// maxPresize caps how many cells ExpandGrid reserves room for up front;
// larger grids grow by appending.
const maxPresize = 1 << 16

// ExpandGrid is Expand returning the Grid: the scenarios with their
// curves, each curve's key written once by Scenario.AppendCurveKey and
// cut from a few shared chunks (eval.KeyArena). Deduplication runs in two
// steps, and neither builds a cell's key: a curve whose key an earlier
// curve has is dropped whole (every curve of a grid has the same load
// axis, and whether it simulates is in its key, so it repeats that
// curve cell for cell), and within a curve a cell whose token an earlier
// cell has is dropped — which happens only to a repeated load value on a
// curve without the simulator (a simulated cell's token carries its
// position's seed), so the load axis is checked once per grid.
func ExpandGrid(s Spec) (*Grid, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	values := s.Loads.fracs()
	frac := values != nil
	if !frac {
		values = s.Loads.Flits
	}
	loads := make([]Load, len(values))
	for i, v := range values {
		loads[i] = Load{Frac: frac, Value: v}
	}
	repeat := repeatedLoads(loads)
	policies := make([]sim.UpLinkPolicy, len(s.policies()))
	for i, name := range s.policies() {
		var err error
		if policies[i], err = sim.ParsePolicy(name); err != nil {
			return nil, err
		}
	}
	variants, workloads := s.variants(), s.workloads()
	canonical := make([]string, len(workloads))
	for i, wl := range workloads {
		canonical[i] = wl.Canonical()
	}
	curves := s.cells() / len(loads)
	g := &Grid{
		Spec:   s,
		Scens:  make([]Scenario, 0, min(s.cells(), maxPresize)),
		Curves: make([]Curve, 0, min(curves, maxPresize)),
	}
	seen := make(map[string]struct{}, min(curves, maxPresize))
	var (
		arena   eval.KeyArena
		scratch [256]byte
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
							sc := Scenario{
								Topology: topo,
								MsgFlits: flits,
								Policy:   pol,
								Load:     Load{Frac: frac},
								Variant:  v,
								WithSim:  s.withSim() && (len(s.Variants) == 0 || v.WithSim),
								Budget:   s.Budget,
								Workload: wl,
								// The bound calculus ignores model variants (it
								// always bounds the paper's model), so every cell
								// of the grid carries the bit.
								WithBounds: s.wantBounds(),
							}
							visited++
							key := sc.AppendCurveKey(scratch[:0], canonical[wi])
							if _, dup := seen[string(key)]; dup {
								continue
							}
							c := Curve{Key: arena.Cut(key, curves-visited+1), Start: len(g.Scens)}
							seen[c.Key] = struct{}{}
							for li, load := range loads {
								if repeat != nil && repeat[li] && !sc.WithSim {
									continue
								}
								sc.Index, sc.Load, sc.LoadIndex = len(g.Scens), load, li
								g.Scens = append(g.Scens, sc)
							}
							c.End = len(g.Scens)
							g.Curves = append(g.Curves, c)
						}
					}
				}
			}
		}
	}
	return g, nil
}

// repeatedLoads marks every load that repeats an earlier one's value: the
// same token on a curve without the simulator. It is nil when no load
// repeats. A short axis is scanned; a long one is indexed.
func repeatedLoads(loads []Load) []bool {
	var (
		repeat []bool
		first  map[uint64]struct{}
	)
	if len(loads) > 64 {
		first = make(map[uint64]struct{}, len(loads))
	}
	for i, l := range loads {
		bits, dup := math.Float64bits(l.Value), false
		if first != nil {
			_, dup = first[bits]
			first[bits] = struct{}{}
		} else {
			for _, e := range loads[:i] {
				dup = dup || math.Float64bits(e.Value) == bits
			}
		}
		if dup {
			if repeat == nil {
				repeat = make([]bool, len(loads))
			}
			repeat[i] = true
		}
	}
	return repeat
}

// ListGrid is an explicit scenario list as a Grid, for the runner's list
// path (Runner.EvaluateList): each run of consecutive scenarios that share
// a curve key is one curve. The list is taken as it is, duplicates and
// all.
func ListGrid(scens []Scenario) *Grid {
	g := &Grid{Scens: scens}
	var (
		arena   eval.KeyArena
		scratch [256]byte
	)
	for i := range scens {
		key := scens[i].AppendCurveKey(scratch[:0], scens[i].Workload.Canonical())
		if n := len(g.Curves); n > 0 && g.Curves[n-1].Key == string(key) {
			g.Curves[n-1].End++
			continue
		}
		g.Curves = append(g.Curves, Curve{Key: arena.Cut(key, len(scens)-i), Start: i, End: i + 1})
	}
	return g
}
