package sweep

import (
	"encoding/json"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/workload"
)

func validSpec() Spec {
	return Spec{
		Name:       "t",
		Topologies: []TopologySpec{{Family: FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4},
		Loads:      LoadSpec{Fracs: []float64{0.5}},
		WithSim:    true,
		Budget:     Budget{Warmup: 100, Measure: 1000, Seed: 1},
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	want := validSpec()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Topologies[0].Family != FamilyBFT ||
		got.MsgFlits[0] != 4 || got.Loads.Fracs[0] != 0.5 || !got.WithSim ||
		got.Budget != want.Budget {
		t.Errorf("round trip mangled the spec: %+v", got)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"topologies":[],"msg_flit":[16]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("want unknown-field error, got %v", err)
	}
}

func TestParseSpecNamesMisspelledAxis(t *testing.T) {
	// Regression: a misspelled axis must fail with a field-naming error
	// that points at the real field, never be silently ignored (which
	// would run the grid with the axis's default instead).
	cases := []struct {
		spec string
		name string // the misspelled field
		want string // the suggested correction
	}{
		{`{"topologies":[{"family":"bft","sizes":[64]}],"msgflits":[16],"loads":{"fracs":[0.5]}}`,
			"msgflits", "msg_flits"},
		{`{"topologies":[{"family":"bft","sizes":[64]}],"msg_flits":[16],"load":{"fracs":[0.5]}}`,
			"load", "loads"},
		{`{"topologies":[{"family":"bft","sizes":[64]}],"msg_flits":[16],"loads":{"fracs":[0.5]},"polices":["pairqueue"]}`,
			"polices", "policies"},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.spec))
		if err == nil {
			t.Errorf("%s: silently accepted", tc.name)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, `unknown field "`+tc.name+`"`) {
			t.Errorf("%s: error does not name the field: %v", tc.name, err)
		}
		if !strings.Contains(msg, `did you mean "`+tc.want+`"?`) {
			t.Errorf("%s: error does not suggest %q: %v", tc.name, tc.want, err)
		}
	}
}

func TestDecodeStrictRejectsTrailingData(t *testing.T) {
	var s Spec
	err := DecodeStrict([]byte(`{"name":"a"} {"name":"b"}`), &s)
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("want trailing-data error, got %v", err)
	}
}

func TestParseSpecRejectsMalformedJSON(t *testing.T) {
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("accepted malformed JSON")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no topologies", func(s *Spec) { s.Topologies = nil }, "no topologies"},
		{"unknown family", func(s *Spec) { s.Topologies[0].Family = "mesh" }, "unknown family"},
		{"no sizes", func(s *Spec) { s.Topologies[0].Sizes = nil }, "no sizes"},
		{"bad size", func(s *Spec) { s.Topologies[0].Sizes = []int{0} }, "bad size"},
		{"torus k", func(s *Spec) {
			s.Topologies[0] = TopologySpec{Family: FamilyTorus, Sizes: []int{3}}
		}, "k >= 2"},
		{"torus sim", func(s *Spec) {
			s.Topologies[0] = TopologySpec{Family: FamilyTorus, Sizes: []int{3}, K: 4}
		}, "no simulator topology"},
		{"no flits", func(s *Spec) { s.MsgFlits = nil }, "no msg_flits"},
		{"bad flits", func(s *Spec) { s.MsgFlits = []int{0} }, "bad message length"},
		{"bad policy", func(s *Spec) { s.Policies = []string{"lifo"} }, "unknown policy"},
		{"no loads", func(s *Spec) { s.Loads = LoadSpec{} }, "exactly one"},
		{"two load forms", func(s *Spec) {
			s.Loads = LoadSpec{Fracs: []float64{0.5}, Flits: []float64{0.1}}
		}, "exactly one"},
		{"points without max_frac", func(s *Spec) { s.Loads = LoadSpec{Points: 4} }, "max_frac"},
		{"negative load", func(s *Spec) { s.Loads = LoadSpec{Flits: []float64{-0.1}} }, "bad load"},
		{"sim without measure", func(s *Spec) { s.Budget.Measure = 0 }, "budget.measure"},
		{"negative warmup", func(s *Spec) { s.Budget.Warmup = -1 }, "bad budget window"},
		{"negative measure model-only", func(s *Spec) {
			s.WithSim = false
			s.Budget = Budget{Measure: -5}
		}, "bad budget window"},
		{"negative drain limit", func(s *Spec) { s.Budget.DrainLimit = -1 }, "drain limit"},
		{"unnamed variant", func(s *Spec) {
			s.Variants = []Variant{{NoBlockingCorrection: true}}
		}, "no name"},
		{"duplicate variant names", func(s *Spec) {
			s.Variants = []Variant{{Name: "a"}, {Name: "a", SingleServerGroups: true}}
		}, "duplicate"},
		{"colliding variant options", func(s *Spec) {
			s.Variants = []Variant{{Name: "a"}, {Name: "b"}}
		}, "identical options"},
		{"too many cells", func(s *Spec) {
			s.WithSim = false
			s.Loads = LoadSpec{Points: MaxCells + 1, MaxFrac: 0.9}
		}, "1048576 cells, the limit"},
		{"cell count overflows int", func(s *Spec) {
			s.WithSim = false
			s.MsgFlits = make([]int, 1<<12)
			for i := range s.MsgFlits {
				s.MsgFlits[i] = i + 1
			}
			s.Loads = LoadSpec{Points: 1 << 62, MaxFrac: 0.9}
		}, "the limit"},
		{"simulated fat-tree too large", func(s *Spec) { s.Topologies[0].Sizes = []int{16, 262144} }, "limit is 65536 processors"},
		{"simulated hypercube too large", func(s *Spec) {
			s.Topologies[0] = TopologySpec{Family: FamilyHypercube, Sizes: []int{17}}
		}, "limit is 65536 processors"},
		{"too many replicas", func(s *Spec) { s.Budget.Replicas = 1 << 30 }, "limit is 65536 processors"},
		{"variant sim without spec sim", func(s *Spec) {
			s.WithSim = false
			s.Budget = Budget{}
			s.Variants = []Variant{{Name: "a", WithSim: true}}
		}, "with_sim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestValidateAcceptsTheLimits: the caps are inclusive, and the network
// cap binds simulated grids only.
func TestValidateAcceptsTheLimits(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"MaxCells model-only cells": func(s *Spec) {
			s.WithSim = false
			s.MsgFlits = []int{4, 8}
			s.Loads = LoadSpec{Points: MaxCells / 2, MaxFrac: 0.9}
		},
		"simulated bft-65536 and 16-cube": func(s *Spec) {
			s.Topologies = []TopologySpec{{Family: FamilyBFT, Sizes: []int{65536}}, {Family: FamilyHypercube, Sizes: []int{16}}}
		},
		"model-only bft-67108864": func(s *Spec) {
			s.WithSim = false
			s.Topologies[0].Sizes = []int{67108864}
		},
	} {
		s := validSpec()
		mut(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

func TestModelOnlySpecNeedsNoBudget(t *testing.T) {
	s := validSpec()
	s.WithSim = false
	s.Budget = Budget{}
	if err := s.Validate(); err != nil {
		t.Errorf("model-only spec should not need a budget: %v", err)
	}
}

func TestBuiltinsAreValid(t *testing.T) {
	names := Builtins()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Builtins() not sorted: %v", names)
	}
	for _, name := range names {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("builtin %q has Name %q", name, s.Name)
		}
		if _, err := Expand(s); err != nil {
			t.Errorf("builtin %q does not expand: %v", name, err)
		}
	}
	if _, err := Builtin("no-such-spec"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

func TestBuiltinReturnsIsolatedCopy(t *testing.T) {
	a, err := Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	a.Topologies[0].Sizes[0] = 16
	a.MsgFlits[0] = 999
	a.Loads.Points = 1
	b, err := Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	if b.Topologies[0].Sizes[0] != 1024 || b.MsgFlits[0] != 16 || b.Loads.Points != 10 {
		t.Errorf("mutating a Builtin result corrupted the registry: %+v", b)
	}
}

// TestBuiltinsListWorkloadSpecs checks the registry surface cmd/sweep
// -list prints: the paper grids and the workload-bearing grids are listed,
// every builtin carries a description, and bursty's names its process.
func TestBuiltinsListWorkloadSpecs(t *testing.T) {
	names := Builtins()
	for _, want := range []string{"figure3", "table2", "bursty", "hotspot"} {
		if !slices.Contains(names, want) {
			t.Errorf("builtin %q missing from %v", want, names)
		}
	}
	for _, name := range names {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Description == "" {
			t.Errorf("builtin %q has no description", name)
		}
		if name == "bursty" && !strings.Contains(strings.ToLower(s.Description), "mmpp") {
			t.Errorf("bursty description does not name the process: %q", s.Description)
		}
	}
}

// FuzzParseSpec is strict spec decoding under attack: whatever the bytes,
// ParseSpec returns an error or a spec and never panics, and a spec it
// accepts re-marshals to bytes it accepts again, expanding to the same
// cells under the same keys — a shard keys its expansion memo on the
// bytes a coordinator marshals, and both must mean one grid.
func FuzzParseSpec(f *testing.F) {
	for _, name := range Builtins() {
		s, err := Builtin(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		// The request-size limits: too many cells, a network too large to
		// simulate, the scenario body /v1/curve took before specs.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],"loads":{"points":2097152,"max_frac":0.9}}`,
		`{"topologies":[{"family":"bft","sizes":[262144]}],"msg_flits":[8],"loads":{"fracs":[0.5]},"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1}}`,
		`{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"frac":true,"value":0.5}}`,
		`{"topologies":[{"family":"torus","sizes":[2,3],"k":4}],"msg_flits":[8],"variants":[{"name":"a"},{"name":"b","no_blocking_correction":true}],"loads":{"flits":[0.01]}}`,
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],"workloads":[{"name":"hot","pattern":"hotspot","hot":[0],"hot_frac":0.3}],"loads":{"fracs":[0.5]}}`,
		`{`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(again)
		if err != nil {
			t.Fatalf("accepted spec re-marshals to\n%s\nwhich ParseSpec refuses: %v", again, err)
		}
		// The keys of a large grid cost memory, not coverage.
		if s.cells() > 1<<12 {
			return
		}
		_, keys := expandKeys(t, s)
		_, keys2 := expandKeys(t, s2)
		if !slices.Equal(keys, keys2) {
			t.Fatalf("re-marshalled spec expands to other cells:\n%q\nvs\n%q", keys, keys2)
		}
	})
}

// FuzzWorkloadSpec is the workload axis under attack: whatever the bytes,
// a workload.Spec that strict decoding and Validate accept can be keyed,
// labelled, spread over a small network's sources and given a destination
// pattern without panicking (an error is a fine answer: sizes are checked
// when a network is known), its canonical key — the cache key's
// workload field — survives a marshal/decode round trip, and a cell's key
// with that workload reads back (eval.ParseKey) as that very cell, with or
// without the bounds bit: no workload can forge another cell's key.
func FuzzWorkloadSpec(f *testing.F) {
	for _, name := range Builtins() {
		s, err := Builtin(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, w := range s.Workloads {
			data, err := json.Marshal(w)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, body := range []string{
		`{"process":"gamma","shape":0.5,"mix":"ramp","ramp_ratio":4,"pattern":"locality","decay":0.5}`,
		`{"process":"weibull","shape":2,"mix":"topk","mix_k":3,"mix_frac":0.6,"pattern":"transpose"}`,
		`{"pattern":"hotspot","hot":[15,3,3],"hot_frac":1}`,
		`{"pattern":"bitcomplement"}`,
		`{"name":"replay","trace":"t.ndjson"}`,
		`{"trace":"t.ndjson bounds=true"}`,
		`{"process":"gamm","shape":2}`,
	} {
		f.Add([]byte(body))
	}
	const n = 16
	dist := func(a, b int) int { return 2 * bits.Len(uint(a^b)) }
	f.Fuzz(func(t *testing.T, data []byte) {
		var w workload.Spec
		if DecodeStrict(data, &w) != nil || w.Validate() != nil {
			return
		}
		key := w.Canonical()
		_ = w.Label()
		w.Rates(n, 0.01)
		w.BuildPattern(n, dist)
		again, err := json.Marshal(&w)
		if err != nil {
			t.Fatalf("accepted workload does not marshal: %v", err)
		}
		var back workload.Spec
		if err := DecodeStrict(again, &back); err != nil {
			t.Fatalf("accepted workload re-marshals to\n%s\nwhich strict decoding refuses: %v", again, err)
		}
		if got := back.Canonical(); got != key {
			t.Fatalf("round trip moved the canonical key: %q → %q\n%s", key, got, again)
		}
		for _, bounds := range []bool{false, true} {
			sc := Scenario{Topology: Topology{Family: FamilyBFT, Size: n}, MsgFlits: 16, Load: Load{Value: 0.1}, Workload: &w, WithBounds: bounds}
			cell := sc.Key()
			got, wk, err := eval.ParseKey(cell)
			if err != nil || got.WithBounds != bounds || wk != key || got.Topology != sc.Topology || got.Load != sc.Load {
				t.Fatalf("key %q reads back as bounds=%v workload=%q %+v (%v), not its own cell", cell, got.WithBounds, wk, got.Topology, err)
			}
		}
	})
}
