package plan

import (
	"fmt"
	"math"

	"repro/internal/eval"
)

// CostModel maps a candidate's topology instance (and message length,
// for models that care) to a scalar cost. Implementations must be safe
// for concurrent use.
type CostModel interface {
	// Cost returns the raw (unweighted) cost of the instance.
	Cost(topo eval.Topology, msgFlits int) (float64, error)
}

// costModel resolves a spec's cost model name.
func costModel(name string) (CostModel, error) {
	switch name {
	case "ports":
		return portCost{}, nil
	case "processors":
		return processorCost{}, nil
	}
	return nil, fmt.Errorf("plan: unknown cost model %q (have [ports processors])", name)
}

// cost applies the spec's weighting to the selected model.
func (s Spec) cost(topo eval.Topology, msgFlits int) (float64, error) {
	d := s.withDefaults()
	m, err := costModel(d.Cost.Model)
	if err != nil {
		return math.NaN(), err
	}
	raw, err := m.Cost(topo, msgFlits)
	if err != nil {
		return math.NaN(), err
	}
	return d.Cost.Fixed + d.Cost.Weight*raw, nil
}

// portCost is the default hardware-cost proxy: the total number of
// directed unit-bandwidth channels of the instance — router ports plus
// processor injection/ejection ports. For families with a simulator
// topology the count is read off the process's one build of it
// (eval.SimNetwork), which a simulated candidate shares; the torus, which
// has no simulator topology, uses its closed form: k^n routers with n
// outgoing inter-router links plus an injection and an ejection channel
// each.
type portCost struct{}

func (portCost) Cost(topo eval.Topology, msgFlits int) (float64, error) {
	if topo.Family == eval.FamilyTorus {
		// k^n routers × (n links + injection + ejection).
		return math.Pow(float64(topo.K), float64(topo.Size)) * float64(topo.Size+2), nil
	}
	net, err := eval.SimNetwork(topo)
	if err != nil {
		return math.NaN(), fmt.Errorf("plan: cost of %s: %w", topo, err)
	}
	return float64(net.NumChannels()), nil
}

// processorCost counts processors: the cost proxy for "how much machine
// am I buying" questions where the interconnect is not the budget item.
type processorCost struct{}

func (processorCost) Cost(topo eval.Topology, msgFlits int) (float64, error) {
	switch topo.Family {
	case eval.FamilyBFT:
		return float64(topo.Size), nil
	case eval.FamilyHypercube:
		return math.Pow(2, float64(topo.Size)), nil
	case eval.FamilyTorus:
		return math.Pow(float64(topo.K), float64(topo.Size)), nil
	default:
		return math.NaN(), fmt.Errorf("plan: unknown family %q", topo.Family)
	}
}
