package plan

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/sweep"
)

func validSpec() Spec {
	return Spec{
		Space: Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
			MsgFlits:   []int{16},
		},
		Objective: ObjectiveMaxLoad,
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	want := validSpec()
	want.Name = "roundtrip"
	want.Constraints = Constraints{MaxLatency: 50, MinLoad: 0.01}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Objective != want.Objective ||
		got.Constraints != want.Constraints ||
		got.Space.Topologies[0].Family != sweep.FamilyBFT {
		t.Errorf("round trip mangled the spec: %+v", got)
	}
}

func TestParseSpecNamesMisspelledField(t *testing.T) {
	// Regression: a typo in a plan spec fails with a field-naming error,
	// never silently relaxes the plan.
	_, err := ParseSpec([]byte(`{
		"space": {"topologies": [{"family": "bft", "sizes": [64]}], "msg_flits": [16]},
		"objektive": "max-load"
	}`))
	if err == nil {
		t.Fatal("misspelled field accepted")
	}
	if !strings.Contains(err.Error(), `unknown field "objektive"`) ||
		!strings.Contains(err.Error(), `did you mean "objective"?`) {
		t.Errorf("error does not name and correct the field: %v", err)
	}

	_, err = ParseSpec([]byte(`{
		"space": {"topologies": [{"family": "bft", "sizes": [64]}], "msg_flits": [16]},
		"objective": "max-load",
		"constraints": {"max_latencey": 50}
	}`))
	if err == nil || !strings.Contains(err.Error(), `did you mean "max_latency"?`) {
		t.Errorf("nested misspelling not corrected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no objective", func(s *Spec) { s.Objective = "" }, "no objective"},
		{"bad objective", func(s *Spec) { s.Objective = "max-profit" }, "unknown objective"},
		{"empty space", func(s *Spec) { s.Space.Topologies = nil }, "no topologies"},
		{"bad policy", func(s *Spec) { s.Space.Policies = []string{"lifo"} }, "policy"},
		{"negative slo", func(s *Spec) { s.Constraints.MaxLatency = -1 }, "max_latency"},
		{"bad utilization", func(s *Spec) { s.Constraints.MaxUtilization = 1.5 }, "max_utilization"},
		{"unknown cost model", func(s *Spec) { s.Cost.Model = "carbon" }, "unknown cost model"},
		{"unordered fracs", func(s *Spec) { s.Search.PruneFracs = []float64{0.5, 0.25} }, "increasing"},
		{"bad tolerance", func(s *Spec) { s.Search.Tolerance = 2 }, "tolerance"},
		{"bad operating frac", func(s *Spec) { s.Search.OperatingFrac = 1.5 }, "operating_frac"},
		{"network too large to certify", func(s *Spec) { s.Space.Topologies[0].Sizes = []int{262144} }, "limit is 65536 processors"},
		{"too many certification replicas", func(s *Spec) { s.Budget.Replicas = 1 << 30 }, "limit is 65536 processors"},
		{"network too large to cost", func(s *Spec) {
			s.SkipCertify = true
			s.Space.Topologies[0].Sizes = []int{262144}
		}, "limit is 65536 processors"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// Model-only planning with a closed-form cost builds no network.
	s.SkipCertify, s.Cost.Model = true, "processors"
	s.Space.Topologies[0].Sizes = []int{262144}
	if err := s.Validate(); err != nil {
		t.Errorf("model-only plan over bft-262144 rejected: %v", err)
	}
}

func TestCostModels(t *testing.T) {
	bft64 := eval.Topology{Family: eval.FamilyBFT, Size: 64}
	ports, err := costModel("ports")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := ports.Cost(bft64, 16)
	if err != nil {
		t.Fatal(err)
	}
	net, err := bft64.NewNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != float64(net.NumChannels()) {
		t.Errorf("ports cost of bft-64 = %v, want %d channels", c1, net.NumChannels())
	}
	// Memoized second call agrees.
	if c2, _ := ports.Cost(bft64, 16); c2 != c1 {
		t.Errorf("memoized cost differs: %v vs %v", c2, c1)
	}
	// The torus closed form: k^n routers × (n + 2) ports.
	torus := eval.Topology{Family: eval.FamilyTorus, Size: 3, K: 4}
	ct, err := ports.Cost(torus, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := 64.0 * 5; ct != want {
		t.Errorf("torus ports cost = %v, want %v", ct, want)
	}

	procs, err := costModel("processors")
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := procs.Cost(bft64, 16); c != 64 {
		t.Errorf("processors cost of bft-64 = %v", c)
	}
	if c, _ := procs.Cost(eval.Topology{Family: eval.FamilyHypercube, Size: 6}, 16); c != 64 {
		t.Errorf("processors cost of hypercube-6 = %v", c)
	}

	// Weight and fixed offsets apply.
	s := validSpec()
	s.Cost = CostSpec{Model: "processors", Weight: 2, Fixed: 10}
	if c, err := s.cost(bft64, 16); err != nil || c != 138 {
		t.Errorf("weighted cost = %v (%v), want 138", c, err)
	}

	if _, err := costModel("nope"); err == nil || err.Error() != `plan: unknown cost model "nope" (have [ports processors])` {
		t.Errorf("unknown cost model: err = %v", err)
	}
}

func TestCandidateWireRoundTrip(t *testing.T) {
	c := Candidate{
		Topology:       eval.Topology{Family: eval.FamilyBFT, Size: 256},
		MsgFlits:       16,
		Policy:         "pairqueue",
		Cost:           832,
		SaturationLoad: 0.0789,
		MaxLoad:        0.0789,
		OperatingLoad:  0.071,
		Latency:        42.5,
		Frontier:       true,
		Certified:      true,
		Sim:            41.9,
		SimCI:          0.8,
		Probes:         27,
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var got Candidate
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Errorf("round trip mangled the candidate:\n got %+v\nwant %+v", got, c)
	}

	// NaN fields travel as null and come back NaN.
	nan := math.NaN()
	c2 := Candidate{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 64}, MsgFlits: 16,
		Policy: "pairqueue", Cost: 1, SaturationLoad: nan, MaxLoad: nan,
		OperatingLoad: nan, Latency: nan, Sim: nan, SimCI: nan,
		Pruned: true, PruneReason: "infeasible",
	}
	data, err = json.Marshal(c2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("NaN leaked into the wire: %s", data)
	}
	var got2 Candidate
	if err := json.Unmarshal(data, &got2); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got2.MaxLoad) || !math.IsNaN(got2.Sim) || !got2.Pruned {
		t.Errorf("NaN round trip mangled the candidate: %+v", got2)
	}
}

// TestUpdateWire pins the cmd/plan -stream line: the phase and the
// candidate in its flattened wire form, or the error in-band under
// "error" and nothing else.
func TestUpdateWire(t *testing.T) {
	u := Update{Phase: PhaseRefine, Candidate: &Candidate{Policy: "pairqueue", Topology: eval.Topology{Family: "bft", Size: 64}}}
	data, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Phase     string     `json:"phase"`
		Candidate *Candidate `json:"candidate"`
	}
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if line.Phase != PhaseRefine || line.Candidate == nil || line.Candidate.Topology.Size != 64 {
		t.Errorf("update line %s decodes as %+v", data, line)
	}

	data, err = json.Marshal(Update{Err: errors.New("boom")})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"error":"boom"}` {
		t.Errorf("error update encodes as %s", data)
	}
}

var _ Engine = (*sweep.Runner)(nil) // the local engine contract

func TestPruneSpecIsModelOnly(t *testing.T) {
	s := validSpec()
	ps := s.pruneSpec()
	if ps.WithSim {
		t.Error("prune grid must be model-only")
	}
	if err := ps.Validate(); err != nil {
		t.Errorf("prune spec invalid: %v", err)
	}
	if len(ps.Loads.Fracs) != len(defaultPruneFracs) {
		t.Errorf("prune fracs = %v", ps.Loads.Fracs)
	}
}
