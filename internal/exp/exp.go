// Package exp defines the paper-reproduction experiments as one ordered
// table, All: every table and figure of the evaluation (§3.6) plus the
// ablation and extension studies listed in DESIGN.md, each a sweep spec
// with a renderer. cmd/reproduce and the root benchmark suite range over
// the table, so an artifact is regenerated identically no matter where
// it is invoked from.
package exp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ComparisonPoint pairs the model's prediction with a simulation
// measurement at one offered load.
type ComparisonPoint struct {
	// LoadFlits is the offered load in flits/cycle/processor.
	LoadFlits float64
	// Model is the predicted latency; +Inf when the model saturates.
	Model float64
	// Sim is the measured latency; NaN if the simulation was skipped.
	Sim float64
	// SimCI is the 95% batch-means half-width.
	SimCI float64
	// SimSaturated reports that the simulator could not sustain the load.
	SimSaturated bool
}

// RelErr returns |sim−model|/model, or NaN when either side is not finite.
func (p ComparisonPoint) RelErr() float64 {
	if math.IsInf(p.Model, 0) || math.IsNaN(p.Model) || math.IsNaN(p.Sim) {
		return math.NaN()
	}
	return math.Abs(p.Sim-p.Model) / p.Model
}

// LoadsUpTo returns `points` evenly spaced loads in (0, frac·saturation]
// for the given model (flits/cycle/processor).
func LoadsUpTo(m *analytic.Model, points int, frac float64) ([]float64, error) {
	sat, err := m.SaturationLoad()
	if err != nil {
		return nil, err
	}
	if points < 1 {
		points = 1
	}
	loads := make([]float64, points)
	for i := range loads {
		loads[i] = sat * frac * float64(i+1) / float64(points)
	}
	return loads, nil
}

// CompareCurve evaluates the model and (optionally) the simulator over the
// given loads directly, without the sweep engine: it is the reference the
// tests compare the table's sweep path against. A nil net skips
// simulation (model-only curves). The budget's Precision and Replicas
// knobs map to the simulator's CI-width early stopping and
// independent-replica options.
func CompareCurve(model *analytic.Model, net topology.Network, flits int,
	loads []float64, b sweep.Budget, policy sim.UpLinkPolicy) ([]ComparisonPoint, error) {

	opts := []sim.Option{sim.WithoutChannelBusy()}
	if b.Precision > 0 {
		opts = append(opts, sim.WithTermination(sim.Termination{RelHalfWidth: b.Precision}))
	}
	if b.Replicas > 1 {
		opts = append(opts, sim.WithReplicas(b.Replicas))
	}
	pts := make([]ComparisonPoint, 0, len(loads))
	for i, load := range loads {
		pt := ComparisonPoint{LoadFlits: load, Sim: math.NaN()}
		lat, err := model.Latency(load / float64(flits))
		switch {
		case err == nil:
			pt.Model = lat.Total
		case core.IsUnstable(err):
			pt.Model = math.Inf(1)
		default:
			return nil, fmt.Errorf("exp: model at load %v: %w", load, err)
		}
		if net != nil {
			cfg := sim.Config{
				Net:           net,
				MsgFlits:      flits,
				Pattern:       traffic.Uniform{},
				Seed:          b.Seed + uint64(i)*7919,
				WarmupCycles:  b.Warmup,
				MeasureCycles: b.Measure,
				DrainLimit:    b.DrainLimit,
				Policy:        policy,
			}.FlitLoad(load)
			res, err := sim.Run(context.Background(), cfg, opts...)
			if err != nil {
				return nil, fmt.Errorf("exp: sim at load %v: %w", load, err)
			}
			pt.Sim = res.LatencyMean
			pt.SimCI = res.LatencyCI95
			pt.SimSaturated = res.Saturated
		}
		pts = append(pts, pt)
	}
	return pts, nil
}
