package eval

import (
	"encoding/json"
	"errors"
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
// travels by name. Marshal→Unmarshal round-trips are exact: a float64
// travels as the shortest decimal that parses back to the identical bits,
// which is what lets a remote evaluation reproduce an in-process one bit
// for bit. Points and scenarios are written by the codec in codec.go,
// which emits what encoding/json would (pinned by FuzzPointCodec and
// FuzzScenarioCodec); the reflective structs below decode only what the
// codec's scanners do not recognise, and write only the scenarios
// AppendScenario leaves to encoding/json.

// pointWire is Point as encoding/json decodes it: the fallback under
// ParsePoint for any spelling but the canonical one.
type pointWire struct {
	LoadFlits      loadWire `json:"load_flits"`
	Model          *float64 `json:"model"`
	ModelSaturated bool     `json:"model_saturated"`
	ModelNA        bool     `json:"model_na"`
	Sim            *float64 `json:"sim"`
	SimCI          *float64 `json:"sim_ci"`
	SimSaturated   bool     `json:"sim_saturated"`
	SimPrecision   *float64 `json:"sim_precision"`
	BoundMax       *float64 `json:"bound_max"`
	BoundUnbounded bool     `json:"bound_unbounded"`
	BoundNA        bool     `json:"bound_na"`
}

// loadWire is load_flits on the decode fallback. Every encoder writes
// the key, null included, so its presence is what tells a point object
// from an empty one ({} decodes without error); DecodePoint insists on it.
type loadWire struct {
	v       *float64
	present bool
}

func (l *loadWire) UnmarshalJSON(data []byte) error {
	l.present = true
	return json.Unmarshal(data, &l.v)
}

// Finite returns v boxed, or nil — the wire's null — when v is NaN or
// ±Inf: the one non-finite-to-null mapping under every reflective JSON
// encoder in the stack. OrNaN is its inverse under every decoder.
func Finite(v float64) *float64 {
	if !finite(v) {
		return nil
	}
	return &v
}

// OrNaN returns *v, or NaN when v is the wire's null. (An infinity that
// went out as null comes back through the flag that travelled beside it.)
func OrNaN(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// MarshalJSON encodes the point with non-finite values as null; the
// saturation booleans keep the +Inf model case lossless.
func (p Point) MarshalJSON() ([]byte, error) {
	return AppendPoint(make([]byte, 0, 128), p), nil
}

// UnmarshalJSON decodes the wire form: null fields come back as NaN,
// except the model value of a saturated point, which comes back as +Inf
// (what the in-process backend produced).
func (p *Point) UnmarshalJSON(data []byte) error {
	_, err := p.unmarshal(data)
	return err
}

// DecodePoint is Point.UnmarshalJSON for a stored record: it also
// rejects an object without the load_flits key every encoder writes, so
// that {} or null is a corrupt record rather than an all-NaN cell.
func DecodePoint(data []byte, p *Point) error {
	hasLoad, err := p.unmarshal(data)
	if err == nil && !hasLoad {
		err = errors.New("eval: decoding point: no load_flits")
	}
	return err
}

// unmarshal decodes one point object — the scanner for the canonical
// form, encoding/json for any other — and reports whether it carried its
// load_flits key.
func (p *Point) unmarshal(data []byte) (hasLoad bool, err error) {
	if rest, ok := ParsePoint(data, p); ok && len(rest) == 0 {
		return true, nil
	}
	return p.decode(data)
}

// decode is the encoding/json fallback under ParsePoint.
func (p *Point) decode(data []byte) (hasLoad bool, err error) {
	var w pointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return false, err
	}
	*p = Point{
		LoadFlits:      OrNaN(w.LoadFlits.v),
		Model:          OrNaN(w.Model),
		ModelSaturated: w.ModelSaturated,
		ModelNA:        w.ModelNA,
		Sim:            OrNaN(w.Sim),
		SimCI:          OrNaN(w.SimCI),
		SimSaturated:   w.SimSaturated,
		SimPrecision:   OrNaN(w.SimPrecision),
		BoundMax:       OrNaN(w.BoundMax),
		BoundUnbounded: w.BoundUnbounded,
		BoundNA:        w.BoundNA,
	}
	p.restoreInf()
	return w.LoadFlits.present, nil
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
	c.Model = w.Model
	c.AvgDist = OrNaN(w.AvgDist)
	c.SaturationLoad = OrNaN(w.SaturationLoad)
	return nil
}

// scenarioWire is Scenario as encoding/json writes and reads it, the
// policy enum travelling by name: the reference AppendScenario's bytes
// are pinned to (FuzzScenarioCodec) and the decoder under ParseScenario
// for any spelling but the canonical one.
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

// wire is s as the reflective wire struct carries it.
func (s *Scenario) wire() scenarioWire {
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
	return w
}

// MarshalJSON encodes the scenario for the wire (AppendScenario), policy
// by name.
func (s Scenario) MarshalJSON() ([]byte, error) {
	return AppendScenario(make([]byte, 0, 256), &s)
}

// UnmarshalJSON decodes the wire form — the scanner for the canonical
// form, encoding/json for any other; an absent policy means the default
// (pairqueue), an unknown one is an error.
func (s *Scenario) UnmarshalJSON(data []byte) error {
	if ParseScenario(data, s) {
		return nil
	}
	return s.decode(data)
}

// DecodeScenario is json.Unmarshal(data, sc) — the same scenario, the
// same error — with the canonical form scanned first, so a request body
// that is one canonical scenario (what RemoteBackend.Evaluate sends to
// /v1/eval) never reaches encoding/json.
func DecodeScenario(data []byte, sc *Scenario) error {
	if ParseScenario(data, sc) {
		return nil
	}
	var w Scenario // the fallback's own: sc stays off the heap on the scan path
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*sc = w
	return nil
}

// decode is the encoding/json fallback under ParseScenario.
func (s *Scenario) decode(data []byte) error {
	var w scenarioWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("eval: decoding scenario: %w", err)
	}
	pol, err := sim.ParsePolicy(w.Policy)
	if err != nil {
		return fmt.Errorf("eval: decoding scenario: %w", err)
	}
	// A workload that Validate refuses could forge another cell's key.
	if err := w.Workload.Validate(); err != nil {
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
