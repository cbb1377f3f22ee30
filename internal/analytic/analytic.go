// Package analytic applies the general wormhole model of package core to
// concrete networks: the butterfly fat-tree (the paper's §3, Eq. 12–26,
// in both a closed-form transcription and a generated channel graph that
// must agree), the binary hypercube, and the unidirectional k-ary n-cube
// (the "other networks" of §4). It also finds the saturation throughput by
// the paper's operating-point condition x̄₀₁ = 1/λ₀ (Eq. 26).
//
// # What depends on λ₀
//
// A constructor builds everything the offered load does not touch — name,
// D̄, routing probabilities, the compiled core.Graph, error labels — once.
// An evaluation writes the per-class rates (Eq. 14/15 for the fat-tree,
// flow conservation for the cubes) into a pooled core.Workspace and
// resolves; the fat-tree's paper variant instead runs the closed-form
// recurrences on stack arrays. A stable point allocates nothing, and the
// rate expressions and solver arithmetic are those of a graph rebuilt per
// call, so results are identical to the last bit (testdata/golden.txt).
package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solve"
)

// Per-layer counters (rendered on /metrics by the serve layer), each
// added to once per resolve or search.
var (
	fixedPointIters = obs.NewCounter("analytic_fixedpoint_iterations_total")
	satSearches     = obs.NewCounter("analytic_saturation_searches_total")
	satProbes       = obs.NewCounter("analytic_saturation_probes_total")
)

// SaturationSearches returns how many Eq. 26 saturation searches this
// process has run — the read other layers use to attribute a search to
// their own work (a delta around a call).
func SaturationSearches() int64 { return satSearches.Load() }

// resolve resolves the bound workspace and counts its sweeps: one for an
// acyclic graph's ordered pass, the iterations of a cyclic one's fixed
// point.
func resolve(ws *core.Workspace, opt core.Options) error {
	err := ws.Resolve(opt)
	fixedPointIters.Add(int64(ws.Iterations))
	return err
}

// injLatency resolves the bound workspace and assembles Eq. 25 from the
// injection class.
func injLatency(ws *core.Workspace, opt core.Options, inj core.ClassID, avgDist float64) (Latency, error) {
	if err := resolve(ws, opt); err != nil {
		return Latency{}, err
	}
	return Latency{
		Total:      ws.Wait[inj] + ws.ServiceTime[inj] + avgDist - 1,
		WaitInj:    ws.Wait[inj],
		ServiceInj: ws.ServiceTime[inj],
		AvgDist:    avgDist,
	}, nil
}

// withRates stamps the rates setRates computes at lambda0 onto a
// structure-only core.Model.
func withRates(cm *core.Model, setRates func([]float64, float64), lambda0 float64) *core.Model {
	rates := make([]float64, len(cm.Classes))
	setRates(rates, lambda0)
	for i := range cm.Classes {
		cm.Classes[i].PerLinkRate = rates[i]
	}
	return cm
}

// Latency is the model's prediction at one operating point.
type Latency struct {
	// Total is the average message latency L in cycles (Eq. 25).
	Total float64
	// WaitInj is W̄ at the injection channel (source queueing).
	WaitInj float64
	// ServiceInj is x̄ at the injection channel.
	ServiceInj float64
	// AvgDist is the average path length D̄ in channels.
	AvgDist float64
}

// CurvePoint is one point of a latency-vs-load curve.
type CurvePoint struct {
	// LoadFlits is the offered load in flits/cycle/processor (the paper's
	// Figure 3 x-axis).
	LoadFlits float64
	// Lambda0 is the equivalent message rate per processor.
	Lambda0 float64
	// Latency is the predicted average latency; +Inf past saturation.
	Latency float64
	// Saturated reports whether the model declared this point unstable.
	Saturated bool
}

// NetworkModel is the common surface of the per-topology analytical
// models.
type NetworkModel interface {
	// Name identifies the model instance, e.g. "bft-1024/s=16".
	Name() string
	// MsgFlits returns the configured message length.
	MsgFlits() float64
	// Latency predicts the average latency at per-processor message rate
	// lambda0; it returns an error wrapping core.ErrUnstable past
	// saturation.
	Latency(lambda0 float64) (Latency, error)
	// AvgDist returns D̄ in channels.
	AvgDist() float64
}

// Curve evaluates a model on the given flit loads (flits/cycle/processor),
// marking saturated points instead of failing.
func Curve(m NetworkModel, loads []float64) ([]CurvePoint, error) {
	out := make([]CurvePoint, 0, len(loads))
	for _, load := range loads {
		lambda0 := load / m.MsgFlits()
		pt := CurvePoint{LoadFlits: load, Lambda0: lambda0}
		lat, err := m.Latency(lambda0)
		switch {
		case err == nil:
			pt.Latency = lat.Total
		case core.IsUnstable(err):
			pt.Latency = math.Inf(1)
			pt.Saturated = true
		default:
			return nil, fmt.Errorf("analytic: curve at load %v: %w", load, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// SaturationLoad finds the paper's maximum-throughput operating point
// (Eq. 26): the smallest per-processor message rate λ₀ where the source
// service time x̄₀₁ reaches 1/λ₀. serviceInj must return x̄₀₁(λ₀) or an
// unstable error. The result is in messages/cycle/processor; multiply by
// MsgFlits for the Figure 3 axis.
func SaturationLoad(serviceInj func(lambda0 float64) (float64, error)) (float64, error) {
	probes := int64(0)
	defer func() {
		satSearches.Add(1)
		satProbes.Add(probes)
	}()
	g := func(lambda0 float64) float64 {
		probes++
		x, err := serviceInj(lambda0)
		if err != nil {
			return math.Inf(1) // past stability: saturated for sure
		}
		return lambda0*x - 1
	}
	stable, unstable, ok := solve.GrowToUnstable(func(l float64) bool {
		return g(l) < 0
	}, 1e-7, 64)
	if !ok {
		return 0, fmt.Errorf("analytic: no saturation found (network never saturates below rate 2^64*1e-7?)")
	}
	if stable == 0 {
		// Even the smallest probe saturates; report it as the bound.
		return unstable, nil
	}
	root, err := solve.Bisect(g, stable, unstable, stable*1e-9, 200)
	if err != nil {
		return 0, fmt.Errorf("analytic: saturation bisection: %w", err)
	}
	return root, nil
}
