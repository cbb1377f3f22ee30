package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/race"
	"repro/internal/traffic"
)

// chain builds inject -> hop_{n-1} -> … -> hop_1 -> eject, so graphs of
// different n have different class and transition counts. A cyclic chain
// puts a self-loop on every hop and resolves by the damped fixed point;
// an acyclic one sends a quarter of each hop's traffic straight to the
// ejection channel instead and resolves in one ordered pass.
func chain(n int, lambda, flits float64, cyclic bool) *Model {
	classes := []Class{{Name: "eject", PerLinkRate: lambda, Terminal: true}}
	for i := 1; i < n; i++ {
		side := ClassID(0)
		if cyclic {
			side = ClassID(i)
		}
		classes = append(classes, Class{
			Name: fmt.Sprintf("hop%d", i), Servers: 1 + i%2, PerLinkRate: lambda / float64(1+i%2),
			Out: []Transition{{To: side, Prob: 0.25}, {To: ClassID(i - 1), Prob: 0.75, Groups: 1 + i%3}},
		})
	}
	classes = append(classes, Class{Name: "inject", PerLinkRate: lambda, Out: []Transition{{To: ClassID(n - 1), Prob: 1}}})
	return &Model{Classes: classes, MsgFlits: flits}
}

// resolveVia resolves m through ws and copies the outcome out.
func resolveVia(ws *Workspace, m *Model, opt Options) (*Result, error) {
	g, err := Compile(m.Classes)
	if err != nil {
		return nil, err
	}
	rates := ws.Bind(g, m.MsgFlits)
	for i := range m.Classes {
		rates[i] = m.Classes[i].PerLinkRate
	}
	if err := ws.Resolve(opt); err != nil {
		return nil, err
	}
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &Result{ServiceTime: clone(ws.ServiceTime), Wait: clone(ws.Wait), Utilization: clone(ws.Utilization)}, nil
}

// TestWorkspaceReuse: one workspace, fed models of different sizes in
// turn — growing, shrinking, cyclic and acyclic, and a saturated call in
// between — gives exactly what a fresh workspace per model gives.
func TestWorkspaceReuse(t *testing.T) {
	opts := []Options{{}, {NoBlockingCorrection: true}, {SingleServerGroups: true}, {NoPairRateCorrection: true}}
	var shared Workspace
	for round := 0; round < 2; round++ {
		for _, n := range []int{7, 2, 12, 3, 12, 5} {
			for _, cyclic := range []bool{true, false} {
				// On the cyclic chain 0.03 diverges mid-iteration and 0.9
				// fails the precheck; the ordered pass stops partway at both.
				for _, lambda := range []float64{0.004, 0.012, 0.03, 0.9} {
					for _, opt := range opts {
						m := chain(n, lambda, 16, cyclic)
						want, wantErr := m.Resolve(opt)
						got, gotErr := resolveVia(&shared, m, opt)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("n=%d cyclic=%v λ=%v %+v: fresh err %v, reused err %v", n, cyclic, lambda, opt, wantErr, gotErr)
						}
						if wantErr != nil {
							var we, ge *UnstableError
							if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) || *we != *ge {
								t.Fatalf("n=%d cyclic=%v λ=%v %+v: fresh err %v, reused err %v", n, cyclic, lambda, opt, wantErr, gotErr)
							}
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("n=%d cyclic=%v λ=%v %+v: reused workspace gives\n%+v\nfresh gives\n%+v", n, cyclic, lambda, opt, got, want)
						}
					}
				}
			}
		}
	}
}

// TestResolveAllocs: a stable point on a bound, already-sized workspace
// allocates nothing, through the ordered pass and through the damped fixed
// point, whose lists of live classes are the workspace's own scratch
// whatever the graph's size: a cyclic chain, a torus-shaped graph and a
// cyclic graph of 70 classes.
func TestResolveAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Model
	}{
		{"cyclic chain", chain(9, 0.01, 16, true)},
		{"acyclic chain", chain(9, 0.01, 16, false)},
		{"torus-shaped", atLoad(torusShapedModel(traffic.NewRNG(1), 4, 16), 0.3)},
		{"70 classes", atLoad(randomCyclicGraph(traffic.NewRNG(70), 2, 70, 16), 0.01)},
	} {
		g, err := Compile(c.m.Classes)
		if err != nil {
			t.Fatal(err)
		}
		var ws Workspace
		run := func() {
			rates := ws.Bind(g, c.m.MsgFlits)
			for i := range c.m.Classes {
				rates[i] = c.m.Classes[i].PerLinkRate
			}
			if err := ws.Resolve(Options{}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != 0 && !race.Enabled {
			t.Errorf("%s: Resolve on a warm workspace allocates %v times, want 0", c.name, got)
		}
		if cyclic := g.order == nil; cyclic && ws.Iterations < 2 || !cyclic && ws.Iterations != 1 {
			t.Errorf("%s: Iterations = %d, want a cyclic graph to iterate and an acyclic one to take 1 pass", c.name, ws.Iterations)
		}
	}
}

// TestCompileAllocs: recording the order costs Compile no allocation — it
// makes the graph, its class, targeted and offset slices, and one slab
// holding every class's transitions, whatever the number of classes.
func TestCompileAllocs(t *testing.T) {
	for _, cyclic := range []bool{true, false} {
		m := chain(9, 0.01, 16, cyclic)
		got := testing.AllocsPerRun(100, func() {
			if _, err := Compile(m.Classes); err != nil {
				t.Fatal(err)
			}
		})
		if want := 5.0; got != want && !race.Enabled {
			t.Errorf("cyclic=%v: Compile allocates %v times, want %v", cyclic, got, want)
		}
	}
}

// TestCompileOrder: an acyclic graph's order holds every class once, each
// after all the classes it targets; any cycle — a self-loop or a longer
// one — leaves it nil.
func TestCompileOrder(t *testing.T) {
	acyclic := []*Model{chain(2, 0, 16, false), chain(12, 0, 16, false), twoHop(0, 16), fanIn(0, 16)}
	for seed := uint64(0); seed < 50; seed++ {
		acyclic = append(acyclic, randomLayeredModel(seed))
	}
	for k, m := range acyclic {
		g, err := Compile(m.Classes)
		if err != nil {
			t.Fatal(err)
		}
		at := make(map[int]int)
		for pos, i := range g.order {
			at[i] = pos
		}
		if len(g.order) != len(m.Classes) || len(at) != len(m.Classes) {
			t.Fatalf("model %d: order %v does not hold each of %d classes once", k, g.order, len(m.Classes))
		}
		for i, c := range m.Classes {
			for _, tr := range c.Out {
				if at[int(tr.To)] >= at[i] {
					t.Errorf("model %d: class %d placed at %d, before its target %d at %d", k, i, at[i], tr.To, at[int(tr.To)])
				}
			}
		}
	}
	twoCycle := &Model{MsgFlits: 16, Classes: []Class{
		{Name: "eject", Terminal: true},
		{Name: "a", Out: []Transition{{To: 2, Prob: 0.5}, {To: 0, Prob: 0.5}}},
		{Name: "b", Out: []Transition{{To: 1, Prob: 0.5}, {To: 0, Prob: 0.5}}},
	}}
	for k, m := range []*Model{chain(2, 0, 16, true), chain(12, 0, 16, true), twoCycle} {
		g, err := Compile(m.Classes)
		if err != nil {
			t.Fatal(err)
		}
		if g.order != nil {
			t.Errorf("cyclic model %d: order %v, want nil", k, g.order)
		}
	}
}
