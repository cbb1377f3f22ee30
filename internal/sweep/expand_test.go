package sweep

import (
	"math"
	"reflect"
	"testing"
)

func TestExpandGridShape(t *testing.T) {
	s := Spec{
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16, 64}}},
		MsgFlits:   []int{4, 8},
		Policies:   []string{"pairqueue", "randomfixed"},
		Loads:      LoadSpec{Fracs: []float64{0.2, 0.5, 0.8}},
		WithSim:    true,
		Budget:     Budget{Warmup: 100, Measure: 1000, Seed: 7},
	}
	scens, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 3; len(scens) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scens), want)
	}
	// Loads vary fastest, then policy, then flits, then size.
	if scens[0].Load.Value != 0.2 || scens[1].Load.Value != 0.5 || scens[2].Load.Value != 0.8 {
		t.Errorf("load order wrong: %+v", scens[:3])
	}
	if scens[3].Policy.String() != "randomfixed" {
		t.Errorf("policy should advance after loads: %+v", scens[3])
	}
	if scens[6].MsgFlits != 8 {
		t.Errorf("flits should advance after policies: %+v", scens[6])
	}
	if scens[12].Topology.Size != 64 {
		t.Errorf("size should advance after flits: %+v", scens[12])
	}
	for i, sc := range scens {
		if sc.Index != i {
			t.Errorf("scenario %d has Index %d", i, sc.Index)
		}
		if want := sc.Budget.Seed + uint64(sc.LoadIndex)*7919; sc.Seed() != want {
			t.Errorf("scenario %d seed %d, want %d", i, sc.Seed(), want)
		}
	}
}

func TestExpandIsDeterministic(t *testing.T) {
	s := validSpec()
	s.Topologies[0].Sizes = []int{16, 64, 256}
	s.MsgFlits = []int{4, 8, 16}
	a, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two expansions of the same spec differ")
	}
}

func TestExpandDeduplicates(t *testing.T) {
	s := validSpec()
	s.Topologies[0].Sizes = []int{16, 16}
	s.MsgFlits = []int{4, 4}
	s.Loads = LoadSpec{Fracs: []float64{0.5, 0.5}}
	scens, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	// All eight combinations collapse to... not one: the duplicated frac
	// has LoadIndex 1 and therefore a different seed, so it survives.
	// The duplicated size and flits entries are exact duplicates.
	if len(scens) != 2 {
		t.Fatalf("got %d scenarios, want 2 (dedup across sizes/flits, distinct seeds per load position): %+v", len(scens), scens)
	}
	if scens[0].Seed() == scens[1].Seed() {
		t.Error("duplicate loads at different curve positions should keep distinct seeds")
	}
}

func TestExpandDeduplicatesModelOnly(t *testing.T) {
	// Without simulation the seed is irrelevant, so duplicated load
	// values collapse too.
	s := validSpec()
	s.WithSim = false
	s.Loads = LoadSpec{Fracs: []float64{0.5, 0.5}}
	scens, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 1 {
		t.Fatalf("got %d scenarios, want 1: %+v", len(scens), scens)
	}
}

func TestExpandPointsSugar(t *testing.T) {
	s := validSpec()
	s.Loads = LoadSpec{Points: 4, MaxFrac: 0.8}
	scens, err := Expand(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 0.4, 0.6000000000000001, 0.8}
	if len(scens) != 4 {
		t.Fatalf("got %d scenarios", len(scens))
	}
	for i, sc := range scens {
		if !sc.Load.Frac {
			t.Errorf("point %d not fractional", i)
		}
		if math.Abs(sc.Load.Value-want[i]) > 1e-15 {
			t.Errorf("point %d = %v, want %v", i, sc.Load.Value, want[i])
		}
	}
}

func TestScenarioKeyIgnoresGridPosition(t *testing.T) {
	a := validSpec()
	b := validSpec()
	// The same cell preceded by extra flits in spec b: different Index,
	// same curve position, same key.
	b.MsgFlits = []int{8, 4}
	sa, err := Expand(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Expand(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa[0].Key() != sb[1].Key() {
		t.Error("identical cells at different grid positions should share a cache key")
	}
	if sb[0].Key() == sb[1].Key() {
		t.Error("different message lengths should not share a cache key")
	}
}

func TestScenarioKeySensitivity(t *testing.T) {
	base := validSpec()
	scens := func(mut func(*Spec)) Scenario {
		s := base
		s.Topologies = []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}}
		mut(&s)
		out, err := Expand(s)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	ref := scens(func(*Spec) {})
	muts := map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Budget.Seed = 99 },
		"warmup":  func(s *Spec) { s.Budget.Warmup = 7 },
		"measure": func(s *Spec) { s.Budget.Measure = 777 },
		"load":    func(s *Spec) { s.Loads = LoadSpec{Fracs: []float64{0.25}} },
		"absload": func(s *Spec) { s.Loads = LoadSpec{Flits: []float64{0.5}} },
		"policy":  func(s *Spec) { s.Policies = []string{"randomfixed"} },
		"size":    func(s *Spec) { s.Topologies[0].Sizes = []int{64} },
	}
	for name, mut := range muts {
		if got := scens(mut); got.Key() == ref.Key() {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	// Budget must not leak into model-only keys.
	mo := scens(func(s *Spec) { s.WithSim = false; s.Budget = Budget{} })
	mo2 := scens(func(s *Spec) { s.WithSim = false; s.Budget = Budget{Seed: 42, Measure: 9} })
	if mo.Key() != mo2.Key() {
		t.Error("budget changed a model-only cache key")
	}
}

func TestTopologyString(t *testing.T) {
	cases := map[Topology]string{
		{Family: FamilyBFT, Size: 1024}:      "bft-1024",
		{Family: FamilyHypercube, Size: 8}:   "hypercube-8",
		{Family: FamilyTorus, Size: 3, K: 4}: "torus-4x3",
	}
	for topo, want := range cases {
		if got := topo.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", topo, got, want)
		}
	}
}

// scenarios returns the grid's scenarios, row by row.
func scenarios(g *Grid) []Scenario {
	scens := make([]Scenario, len(g.Rows))
	for i := range g.Rows {
		scens[i] = g.Rows[i].Scenario
	}
	return scens
}
