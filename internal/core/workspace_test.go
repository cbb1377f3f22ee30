package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/race"
)

// chain builds inject -> hop_{n-1} -> … -> hop_1 -> eject with a self-loop
// on every hop, so graphs of different n have different class and
// transition counts and a cyclic fixed point.
func chain(n int, lambda, flits float64) *Model {
	classes := []Class{{Name: "eject", PerLinkRate: lambda, Terminal: true}}
	for i := 1; i < n; i++ {
		classes = append(classes, Class{
			Name: fmt.Sprintf("hop%d", i), Servers: 1 + i%2, PerLinkRate: lambda / float64(1+i%2),
			Out: []Transition{{To: ClassID(i), Prob: 0.25}, {To: ClassID(i - 1), Prob: 0.75, Groups: 1 + i%3}},
		})
	}
	classes = append(classes, Class{Name: "inject", PerLinkRate: lambda, Out: []Transition{{To: ClassID(n - 1), Prob: 1}}})
	return &Model{Classes: classes, MsgFlits: flits}
}

// resolveVia resolves m through ws and copies the outcome out.
func resolveVia(ws *Workspace, m *Model, opt Options) (*Result, error) {
	g, err := Compile(m)
	if err != nil {
		return nil, err
	}
	rates := ws.Bind(g)
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
// turn — growing, shrinking, and a diverging (unstable) call in between —
// gives exactly what a fresh workspace per model gives.
func TestWorkspaceReuse(t *testing.T) {
	opts := []Options{{}, {NoBlockingCorrection: true}, {SingleServerGroups: true}, {NoPairRateCorrection: true}, {CV: CVExponential}}
	var shared Workspace
	for round := 0; round < 2; round++ {
		for _, n := range []int{7, 2, 12, 3, 12, 5} {
			for _, lambda := range []float64{0.004, 0.012, 0.03, 0.9} { // 0.03 diverges mid-iteration, 0.9 fails the precheck
				for _, opt := range opts {
					m := chain(n, lambda, 16)
					want, wantErr := m.Resolve(opt)
					got, gotErr := resolveVia(&shared, m, opt)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("n=%d λ=%v %+v: fresh err %v, reused err %v", n, lambda, opt, wantErr, gotErr)
					}
					if wantErr != nil {
						var we, ge *UnstableError
						if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) || *we != *ge {
							t.Fatalf("n=%d λ=%v %+v: fresh err %v, reused err %v", n, lambda, opt, wantErr, gotErr)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d λ=%v %+v: reused workspace gives\n%+v\nfresh gives\n%+v", n, lambda, opt, got, want)
					}
				}
			}
		}
	}
}

// TestResolveAllocs: a stable point on a bound, already-sized workspace
// allocates nothing.
func TestResolveAllocs(t *testing.T) {
	m := chain(9, 0.01, 16)
	g, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	run := func() {
		rates := ws.Bind(g)
		for i := range m.Classes {
			rates[i] = m.Classes[i].PerLinkRate
		}
		if err := ws.Resolve(Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 && !race.Enabled {
		t.Errorf("Resolve on a warm workspace allocates %v times, want 0", got)
	}
	if ws.Iterations < 2 {
		t.Errorf("Iterations = %d, want the cyclic graph to iterate", ws.Iterations)
	}
}
