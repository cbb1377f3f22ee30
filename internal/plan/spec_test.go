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

// TestCandidateWireBytes pins the -json form of a candidate and of a
// result byte for byte: the wire form is written (cmd/plan -json and
// -stream), never decoded, so its exact bytes are the contract. Non-finite
// floats travel as null, or drop out where the field is optional.
func TestCandidateWireBytes(t *testing.T) {
	nan := math.NaN()
	certified := Candidate{
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
		BoundMax:       nan,
		Probes:         27,
		CalibMAPE:      nan,
	}
	pruned := Candidate{
		Topology: eval.Topology{Family: eval.FamilyBFT, Size: 64}, MsgFlits: 16,
		Policy: "pairqueue", Cost: 1, SaturationLoad: nan, MaxLoad: nan,
		OperatingLoad: nan, Latency: nan, Sim: nan, SimCI: nan,
		BoundMax: math.Inf(1), CalibMAPE: nan,
		Pruned: true, PruneReason: "infeasible",
	}
	const prunedJSON = `{"topology":"bft-64","family":"bft","size":64,"msg_flits":16,"policy":"pairqueue","cost":1,` +
		`"saturation_load":null,"max_load":null,"operating_load":null,"model_latency":null,` +
		`"pruned":true,"prune_reason":"infeasible","bound_unbounded":true}`
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"certified", certified, `{"topology":"bft-256","family":"bft","size":256,"msg_flits":16,"policy":"pairqueue",` +
			`"cost":832,"saturation_load":0.0789,"max_load":0.0789,"operating_load":0.071,"model_latency":42.5,` +
			`"frontier":true,"certified":true,"sim_latency":41.9,"sim_ci95":0.8,"probes":27}`},
		{"NaN to null", pruned, prunedJSON},
		{"result", &Result{
			Spec:       Spec{Name: "n", Objective: ObjectiveMaxLoad},
			Candidates: []Candidate{pruned},
			Frontier:   []Candidate{},
			Stats:      Stats{Candidates: 1, Pruned: 1},
		}, `{"name":"n","objective":"max-load","candidates":[` + prunedJSON + `],"frontier":[],` +
			`"stats":{"candidates":1,"pruned":1,"refined":0,"frontier_size":0,"certified":0,` +
			`"coarse_cells":0,"coarse_cache_hits":0,"probes":0,"sim_evals":0}}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire form\n got %s\nwant %s", tc.name, got, tc.want)
		}
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
	if want := `{"phase":"refine","candidate":{"topology":"bft-64","family":"bft","size":64,"msg_flits":0,` +
		`"policy":"pairqueue","cost":0,"saturation_load":0,"max_load":0,"operating_load":0,"model_latency":0,` +
		`"sim_latency":0,"sim_ci95":0,"bound_max":0,"calib_mape":0}}`; string(data) != want {
		t.Errorf("update line\n got %s\nwant %s", data, want)
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
