package eval

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the JSON wire format of the Evaluator API: the exact
// Scenario/Point encoding spoken by the serving subsystem (internal/serve,
// RemoteBackend) and by the persistent result store (internal/store).
// encoding/json cannot express the NaN/±Inf values a Point carries, so
// non-finite fields map to null (with ModelSaturated keeping the +Inf
// case lossless), and Scenario's Policy — an integer enum in memory —
// travels by name. Marshal→Unmarshal round-trips are exact: Go's JSON
// encoder emits the shortest float64 representation that parses back to
// the identical bits, which is what lets a remote evaluation reproduce an
// in-process one bit for bit.

// pointWire is Point with non-finite values mapped to null.
type pointWire struct {
	LoadFlits      *float64 `json:"load_flits"`
	Model          *float64 `json:"model"`
	ModelSaturated bool     `json:"model_saturated,omitempty"`
	ModelNA        bool     `json:"model_na,omitempty"`
	Sim            *float64 `json:"sim,omitempty"`
	SimCI          *float64 `json:"sim_ci,omitempty"`
	SimSaturated   bool     `json:"sim_saturated,omitempty"`
	SimPrecision   *float64 `json:"sim_precision,omitempty"`
	// The bound fields are append-only additions: every one of them is
	// omitted when unset, so a point without bounds marshals exactly as
	// it did before they existed (pinned by TestPointWirePreBounds).
	BoundMax       *float64 `json:"bound_max,omitempty"`
	BoundUnbounded bool     `json:"bound_unbounded,omitempty"`
	BoundNA        bool     `json:"bound_na,omitempty"`
}

// Finite returns v boxed, or nil — the wire's null — when v is NaN or
// ±Inf: the one non-finite-to-null mapping under every JSON encoder in
// the stack.
func Finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// unbox returns *v, or def when v is null.
func unbox(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

// MarshalJSON encodes the point with non-finite values as null; the
// saturation booleans keep the +Inf model case lossless.
func (p Point) MarshalJSON() ([]byte, error) {
	return json.Marshal(pointWire{
		LoadFlits:      Finite(p.LoadFlits),
		Model:          Finite(p.Model),
		ModelSaturated: p.ModelSaturated,
		ModelNA:        p.ModelNA,
		Sim:            Finite(p.Sim),
		SimCI:          Finite(p.SimCI),
		SimSaturated:   p.SimSaturated,
		SimPrecision:   Finite(p.SimPrecision),
		BoundMax:       Finite(p.BoundMax),
		BoundUnbounded: p.BoundUnbounded,
		BoundNA:        p.BoundNA,
	})
}

// UnmarshalJSON decodes the wire form: null fields come back as NaN,
// except the model value of a saturated point, which comes back as +Inf
// (what the in-process backend produced).
func (p *Point) UnmarshalJSON(data []byte) error {
	var w pointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	nan := math.NaN()
	p.LoadFlits = unbox(w.LoadFlits, nan)
	p.Model = unbox(w.Model, nan)
	if w.ModelSaturated && w.Model == nil {
		p.Model = math.Inf(1)
	}
	p.ModelSaturated = w.ModelSaturated
	p.ModelNA = w.ModelNA
	p.Sim = unbox(w.Sim, nan)
	p.SimCI = unbox(w.SimCI, nan)
	p.SimSaturated = w.SimSaturated
	p.SimPrecision = unbox(w.SimPrecision, nan)
	p.BoundMax = unbox(w.BoundMax, nan)
	if w.BoundUnbounded && w.BoundMax == nil {
		p.BoundMax = math.Inf(1)
	}
	p.BoundUnbounded = w.BoundUnbounded
	p.BoundNA = w.BoundNA
	return nil
}

// curveWire is CurveDesc with non-finite values mapped to null.
type curveWire struct {
	Model          string   `json:"model"`
	AvgDist        *float64 `json:"avg_dist"`
	SaturationLoad *float64 `json:"saturation_load"`
}

// MarshalJSON encodes the curve description with non-finite values as
// null (a failed Eq. 26 search leaves SaturationLoad NaN).
func (c CurveDesc) MarshalJSON() ([]byte, error) {
	return json.Marshal(curveWire{
		Model:          c.Model,
		AvgDist:        Finite(c.AvgDist),
		SaturationLoad: Finite(c.SaturationLoad),
	})
}

// UnmarshalJSON decodes the wire form; null fields come back as NaN.
func (c *CurveDesc) UnmarshalJSON(data []byte) error {
	var w curveWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	nan := math.NaN()
	c.Model = w.Model
	c.AvgDist = unbox(w.AvgDist, nan)
	c.SaturationLoad = unbox(w.SaturationLoad, nan)
	return nil
}

// scenarioWire is Scenario with the policy enum travelling by name.
type scenarioWire struct {
	Index      int            `json:"index"`
	Topology   Topology       `json:"topology"`
	MsgFlits   int            `json:"msg_flits"`
	Policy     string         `json:"policy,omitempty"`
	Load       Load           `json:"load"`
	Variant    *Variant       `json:"variant,omitempty"`
	LoadIndex  int            `json:"load_index"`
	WithSim    bool           `json:"with_sim,omitempty"`
	Budget     *Budget        `json:"budget,omitempty"`
	Workload   *workload.Spec `json:"workload,omitempty"`
	WithBounds bool           `json:"with_bounds,omitempty"`
}

// MarshalJSON encodes the scenario for the wire, policy by name.
func (s Scenario) MarshalJSON() ([]byte, error) {
	w := scenarioWire{
		Index:      s.Index,
		Topology:   s.Topology,
		MsgFlits:   s.MsgFlits,
		Policy:     s.Policy.String(),
		Load:       s.Load,
		LoadIndex:  s.LoadIndex,
		WithSim:    s.WithSim,
		WithBounds: s.WithBounds,
	}
	if s.Variant != (Variant{}) {
		v := s.Variant
		w.Variant = &v
	}
	if s.Budget != (Budget{}) {
		b := s.Budget
		w.Budget = &b
	}
	if !s.Workload.IsDefault() {
		w.Workload = s.Workload
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form; an absent policy means the
// default (pairqueue), an unknown one is an error.
func (s *Scenario) UnmarshalJSON(data []byte) error {
	var w scenarioWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("eval: decoding scenario: %w", err)
	}
	pol, err := sim.ParsePolicy(w.Policy)
	if err != nil {
		return fmt.Errorf("eval: decoding scenario: %w", err)
	}
	*s = Scenario{
		Index:      w.Index,
		Topology:   w.Topology,
		MsgFlits:   w.MsgFlits,
		Policy:     pol,
		Load:       w.Load,
		LoadIndex:  w.LoadIndex,
		WithSim:    w.WithSim,
		WithBounds: w.WithBounds,
	}
	if w.Variant != nil {
		s.Variant = *w.Variant
	}
	if w.Budget != nil {
		s.Budget = *w.Budget
	}
	s.Workload = w.Workload
	return nil
}
