package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/traffic"
)

// iterate is one application of Eq. 3/11, out = f(x), as the cyclic solver
// applied it before the fused kernel: every targeted class's wait at x,
// then every class's service sum.
func (ws *Workspace) iterate(x, out []float64) {
	for j, targeted := range ws.g.targeted {
		if targeted {
			ws.Wait[j] = ws.wait(j, x[j])
		}
	}
	for i := range out {
		out[i] = ws.service(i, x)
	}
}

// dampedOracle is the generic damped iteration the kernel replaced:
// x ← (1−d)·x + d·f(x) until the max-norm change is below the tolerance,
// stopping at a non-finite component of f(x) with the partially updated
// iterate left in x. It returns the sweeps run and whether it converged.
func dampedOracle(f func(x, out []float64), x, fx []float64) (int, bool) {
	damping, tol, maxIter := 0.5, 1e-10, 10_000
	for it := 0; it < maxIter; it++ {
		f(x, fx)
		var delta float64
		for i := range x {
			if math.IsNaN(fx[i]) || math.IsInf(fx[i], 0) {
				return it + 1, false
			}
			nxt := (1-damping)*x[i] + damping*fx[i]
			if d := math.Abs(nxt - x[i]); d > delta {
				delta = d
			}
			x[i] = nxt
		}
		if delta < tol {
			return it + 1, true
		}
	}
	return maxIter, false
}

// stableOracle is Stable's cyclic path as it stood before the fused
// kernel — the precheck, dampedOracle over iterate, then the verdict — run
// on a workspace a Stable call has prepared for the same rates and
// options: the queue rates and blocking factors both paths read are
// written before either runs.
func (ws *Workspace) stableOracle() bool {
	ws.Iterations = 0
	for i := range ws.rates {
		if !ws.checkStable(i, ws.msgFlits) {
			return false
		}
	}
	x := ws.ServiceTime
	for i := range x {
		x[i] = ws.msgFlits
	}
	var converged bool
	ws.Iterations, converged = dampedOracle(ws.iterate, x, ws.fx)
	if !converged {
		ws.firstUnstable()
		return false
	}
	for i := range x {
		if !ws.checkStable(i, x[i]) {
			return false
		}
		ws.finish(i)
	}
	return true
}

// randomCyclicModel builds a random channel-class graph with a cycle: one
// or two terminal classes at random positions, which the others eject to
// (fan-in), and up to six non-terminal classes whose one to four
// transitions reach any class, themselves included, with group sizes up
// to 3 and fan-outs up to 4. One non-terminal class then gets a self-loop
// or a two-class cycle through another. Rates are positive weights the
// caller scales.
func randomCyclicModel(rng *traffic.RNG, msgFlits float64) *Model {
	terms := 1 + rng.Intn(2)
	n := terms + 1 + rng.Intn(6)
	classes := make([]Class, n)
	perm := make([]ClassID, n)
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], ClassID(i)
	}
	terminals, others := perm[:terms], perm[terms:]
	for _, i := range terminals {
		classes[i].Terminal = true
	}
	for i := range classes {
		c := &classes[i]
		c.Name = fmt.Sprintf("c%d", i)
		c.PerLinkRate = 0.05 + rng.Float64()
		if rng.Intn(3) == 0 {
			c.Servers = rng.Intn(4) // 0 means 1
		}
		if c.Terminal {
			continue
		}
		k := 1 + rng.Intn(4)
		rest := 1.0
		for t := 0; t < k; t++ {
			to := ClassID(rng.Intn(n))
			if t == k-1 && rng.Intn(5) != 0 {
				to = terminals[rng.Intn(len(terminals))] // most classes can eject
			}
			p := rest
			if t < k-1 {
				p = rest * rng.Float64()
			}
			rest -= p
			c.Out = append(c.Out, Transition{To: to, Prob: p, Groups: rng.Intn(5)})
		}
	}
	a := others[rng.Intn(len(others))]
	b := others[rng.Intn(len(others))]
	classes[a].Out[0].To = b
	classes[b].Out[0].To = a
	return &Model{Classes: classes, MsgFlits: msgFlits}
}

// kernelOptions decodes the option combination a fuzz input names: the
// CV mode and the three ablation switches.
func kernelOptions(flags uint8) Options {
	return Options{
		CV:                   CVMode(flags&3) % 3,
		SingleServerGroups:   flags&4 != 0,
		NoPairRateCorrection: flags&8 != 0,
		NoBlockingCorrection: flags&16 != 0,
	}
}

// kernelOutcome is everything a Stable call leaves for its callers.
type kernelOutcome struct {
	stable                         bool
	iterations, sat                int
	satRho                         float64
	serviceTime, wait, utilization []float64
}

// run fills the workspace's outputs with a sentinel, so an entry neither
// path writes compares equal, runs solve and records the outcome.
func (o *kernelOutcome) run(ws *Workspace, solve func() bool) {
	for _, s := range [][]float64{ws.ServiceTime, ws.Wait, ws.Utilization} {
		for i := range s {
			s[i] = -1.5
		}
	}
	ws.sat, ws.satRho = -7, -7
	o.stable = solve()
	o.iterations, o.sat, o.satRho = ws.Iterations, ws.sat, ws.satRho
	o.serviceTime = append(o.serviceTime[:0], ws.ServiceTime...)
	o.wait = append(o.wait[:0], ws.Wait...)
	o.utilization = append(o.utilization[:0], ws.Utilization...)
}

// diff names the first field in which two outcomes differ, bit for bit.
func (o *kernelOutcome) diff(p *kernelOutcome) string {
	bits := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}
	switch {
	case o.stable != p.stable:
		return fmt.Sprintf("stable %v, oracle %v", o.stable, p.stable)
	case o.iterations != p.iterations:
		return fmt.Sprintf("%d sweeps, oracle %d", o.iterations, p.iterations)
	case o.sat != p.sat || math.Float64bits(o.satRho) != math.Float64bits(p.satRho):
		return fmt.Sprintf("saturated class %d (ρ %v), oracle %d (ρ %v)", o.sat, o.satRho, p.sat, p.satRho)
	}
	for _, f := range []struct {
		name     string
		got, ref []float64
	}{{"ServiceTime", o.serviceTime, p.serviceTime}, {"Wait", o.wait, p.wait}, {"Utilization", o.utilization, p.utilization}} {
		if i := bits(f.got, f.ref); i >= 0 {
			return fmt.Sprintf("%s[%d] = %v, oracle %v", f.name, i, f.got[i], f.ref[i])
		}
	}
	return ""
}

// FuzzCyclicKernel: the fused kernel is the generic damped iteration over
// iterate, bit for bit — the verdict, the sweep count, the saturated class
// and its ρ, and every ServiceTime, Wait and Utilization entry, including
// the partial iterate a non-finite sweep leaves — on random cyclic graphs
// (self-loops, longer cycles, multi-server groups, terminal fan-in), under
// every option combination, at loads from near zero to past saturation.
// The seeds cover all 24 combinations; flag 32 takes a subnormal message
// length, where a terminal class's x̄ does not stay s.
func FuzzCyclicKernel(f *testing.F) {
	for cv := uint8(0); cv < 3; cv++ {
		for ablations := uint8(0); ablations < 8; ablations++ {
			for seed := uint64(1); seed <= 3; seed++ {
				flags := cv | ablations<<2
				f.Add(seed|uint64(flags)<<8, flags)
			}
		}
	}
	f.Add(uint64(7), uint8(32))
	f.Add(uint64(8), uint8(32|4|16))
	var ws Workspace
	var got, want kernelOutcome
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		rng := traffic.NewRNG(seed)
		s := float64(1+rng.Intn(64)) * (0.5 + rng.Float64())
		if flags&32 != 0 {
			s = math.SmallestNonzeroFloat64 * float64(1+2*rng.Intn(8))
		}
		m := randomCyclicModel(rng, s)
		opt := kernelOptions(flags)
		g, err := Compile(m.Classes)
		if err != nil {
			t.Fatal(err)
		}
		if g.order != nil {
			t.Fatalf("seed %d: graph has no cycle", seed)
		}
		var heaviest float64
		for _, c := range m.Classes {
			heaviest = math.Max(heaviest, c.PerLinkRate)
		}
		for probe := 0; probe < 4; probe++ {
			// The load ρ of the busiest class at x̄ = s: log-uniform near
			// zero, or up to past the precheck's ρ = 1.
			load := math.Pow(10, -6+4*rng.Float64())
			if rng.Intn(4) != 0 {
				load = 1.2 * rng.Float64()
			}
			scale := load / (heaviest * s)
			if flags&32 != 0 {
				scale = load // rates a subnormal s cannot saturate
			}
			rates := ws.Bind(g, s)
			for i, c := range m.Classes {
				rates[i] = scale * c.PerLinkRate
			}
			got.run(&ws, func() bool {
				stable, err := ws.Stable(opt)
				if err != nil {
					t.Fatal(err)
				}
				return stable
			})
			want.run(&ws, ws.stableOracle)
			if d := got.diff(&want); d != "" {
				t.Fatalf("seed %d %+v s=%v load %v: %s", seed, opt, s, load, d)
			}
		}
	})
}

// hotModel is a cyclic graph that the damped iteration overshoots: "hot"
// passes the x̄ = s precheck at ρ = 0.9, but the first sweep pushes its x̄
// past 1/λ, so the second sweep's wait there is infinite and so is the
// service time of "feeder", which targets it. "calm", ahead of "feeder",
// stays finite.
func hotModel() *Model {
	return &Model{MsgFlits: 16, Classes: []Class{
		{Name: "calm", PerLinkRate: 0.005, Out: []Transition{{To: 0, Prob: 0.5}, {To: 3, Prob: 0.5}}},
		{Name: "feeder", PerLinkRate: 0.01, Out: []Transition{{To: 2, Prob: 1}}},
		{Name: "hot", PerLinkRate: 0.9 / 16, Out: []Transition{{To: 2, Prob: 0.9}, {To: 3, Prob: 0.1}}},
		{Name: "eject", PerLinkRate: 0.02, Terminal: true},
	}}
}

// bindModel binds ws to m's graph and writes its rates.
func bindModel(t *testing.T, ws *Workspace, m *Model) {
	t.Helper()
	g, err := Compile(m.Classes)
	if err != nil {
		t.Fatal(err)
	}
	rates := ws.Bind(g, m.MsgFlits)
	for i, c := range m.Classes {
		rates[i] = c.PerLinkRate
	}
}

// TestKernelPartialIterate: a sweep stopped by a non-finite component
// leaves the partially updated iterate — the components before it moved,
// the rest did not — counts the sweep, and names the saturated class from
// that iterate.
func TestKernelPartialIterate(t *testing.T) {
	m := hotModel()
	var ws Workspace
	bindModel(t, &ws, m)
	if stable, err := ws.Stable(Options{}); stable || err != nil {
		t.Fatalf("Stable = %v, %v; want an unstable verdict", stable, err)
	}
	if ws.Iterations != 2 {
		t.Fatalf("stopped after %d sweeps, want 2", ws.Iterations)
	}
	got := append([]float64(nil), ws.ServiceTime...)

	// The same two sweeps by hand.
	n := len(m.Classes)
	x1, f1, f2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x1 {
		x1[i] = m.MsgFlits
	}
	ws.iterate(x1, f1)
	for i := range x1 {
		x1[i] = (1-damping)*x1[i] + damping*f1[i]
	}
	ws.iterate(x1, f2)
	if !math.IsInf(f2[1], 1) || math.IsInf(f2[0], 0) || math.IsNaN(f2[0]) {
		t.Fatalf("second sweep f(x) = %v, want calm finite and feeder +Inf", f2)
	}
	want := append([]float64{(1-damping)*x1[0] + damping*f2[0]}, x1[1:]...)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("x[%d] = %v, want %v (partial iterate %v)", i, got[i], want[i], want)
		}
	}
	var ue *UnstableError
	if err := ws.Resolve(Options{}); !errors.As(err, &ue) || *ue != (UnstableError{Class: "hot", Rho: ws.Rate(2) * x1[2]}) {
		t.Errorf("Resolve = %v, want hot named at the partial iterate's ρ %v", err, ws.Rate(2)*x1[2])
	}
}

// TestKernelNonFiniteStops: a non-finite service time ends the iteration
// in the sweep it appears in, whatever is left of the budget: the hot
// model across loads past its overshoot, and an infinite message length,
// which no sweep survives.
func TestKernelNonFiniteStops(t *testing.T) {
	var ws Workspace
	for _, scale := range []float64{1, 1.02, 1.05, 1.1} {
		m := hotModel()
		m.Classes[2].PerLinkRate *= scale
		bindModel(t, &ws, m)
		stable, err := ws.Stable(Options{})
		if stable || err != nil || ws.Iterations >= maxSweeps || ws.Iterations < 1 {
			t.Errorf("hot ×%v: Stable = %v, %v after %d sweeps; want an early unstable verdict", scale, stable, err, ws.Iterations)
		}
		if ws.sat < 0 {
			t.Errorf("hot ×%v: no saturated class named", scale)
		}
	}
	m := &Model{MsgFlits: math.Inf(1), Classes: []Class{
		{Name: "ring", Out: []Transition{{To: 0, Prob: 0.5}, {To: 1, Prob: 0.5}}},
		{Name: "eject", Terminal: true},
	}}
	bindModel(t, &ws, m)
	if stable, err := ws.Stable(Options{}); stable || err != nil || ws.Iterations != 1 {
		t.Errorf("s = +Inf: Stable = %v, %v after %d sweeps; want unstable after 1", stable, err, ws.Iterations)
	}
}

// TestKernelSweepCap: an iteration that neither converges nor overflows
// is declared diverged at exactly the sweep budget. A class that feeds
// only itself, half its blocked wait charged per hop, creeps up by about
// 1e-8 a sweep forever.
func TestKernelSweepCap(t *testing.T) {
	m := &Model{MsgFlits: 16, Classes: []Class{
		{Name: "loop", PerLinkRate: 1e-9, Out: []Transition{{To: 0, Prob: 1, Groups: 2}}},
	}}
	var ws Workspace
	bindModel(t, &ws, m)
	stable, err := ws.Stable(Options{})
	if stable || err != nil || ws.Iterations != maxSweeps {
		t.Fatalf("Stable = %v, %v after %d sweeps; want unstable at the %d-sweep budget", stable, err, ws.Iterations, maxSweeps)
	}
	if x := ws.ServiceTime[0]; !(x > 16 && x < 17) || ws.sat != 0 {
		t.Errorf("x̄ = %v, saturated class %d; want a finite creep above 16 naming loop", x, ws.sat)
	}
}
