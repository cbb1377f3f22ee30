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
	return randomCyclicGraph(rng, terms, terms+1+rng.Intn(6), msgFlits)
}

// randomCyclicGraph is randomCyclicModel with terms terminal classes among
// n.
func randomCyclicGraph(rng *traffic.RNG, terms, n int, msgFlits float64) *Model {
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

// torusShapedModel builds the class graph of a k-ary n-cube under
// dimension-order routing with random weights: eject, one class per
// dimension, then inject. Dimension d stays in d (a self-loop), moves on
// to a higher dimension or ejects, and inject enters any dimension — the
// triangular self-loop chains in which the higher dimensions settle
// sweeps before the lower ones. Most classes are single links at one
// shared rate, as on a torus; some get a group, a fan-out or a rate of
// their own.
func torusShapedModel(rng *traffic.RNG, dims int, msgFlits float64) *Model {
	classes := make([]Class, dims+2)
	classes[0] = Class{Name: "eject", PerLinkRate: 0.5 + rng.Float64(), Terminal: true}
	hops := 0.5 + rng.Float64()
	for d := 0; d < dims; d++ {
		c := &classes[1+d]
		c.Name, c.PerLinkRate = fmt.Sprintf("dim%d", d), hops
		if rng.Intn(4) == 0 {
			c.PerLinkRate *= 0.5 + rng.Float64()
		}
		if rng.Intn(5) == 0 {
			c.Servers = 1 + rng.Intn(3)
		}
		stay := 0.1 + 0.8*rng.Float64()
		c.Out = append(c.Out, Transition{To: ClassID(1 + d), Prob: stay, Groups: rng.Intn(3)})
		rest := 1 - stay
		for e := d + 1; e < dims; e++ {
			p := rest * rng.Float64()
			c.Out = append(c.Out, Transition{To: ClassID(1 + e), Prob: p})
			rest -= p
		}
		c.Out = append(c.Out, Transition{To: 0, Prob: rest})
	}
	inject := &classes[dims+1]
	inject.Name, inject.PerLinkRate = "inject", 0.5+rng.Float64()
	rest := 1.0
	for d := 0; d < dims-1; d++ {
		p := rest * rng.Float64()
		inject.Out = append(inject.Out, Transition{To: ClassID(1 + d), Prob: p})
		rest -= p
	}
	inject.Out = append(inject.Out, Transition{To: ClassID(dims), Prob: rest})
	return &Model{Classes: classes, MsgFlits: msgFlits}
}

// lateMoverModel builds a chain whose classes hold still and then move:
// "loop" feeds itself and moves from the first sweep, and each class of
// the chain behind it targets the one ahead at the same rate, so its
// blocking factor P(i|t) is 0 and its first sums are s. Class late1 holds
// still in sweep 1 and moves in sweep 2, late2 behind it moves in sweep
// 3, and so on: each is redone only because a target moved.
func lateMoverModel(rng *traffic.RNG, msgFlits float64) *Model {
	rate, stay := 0.5+rng.Float64(), 0.2+0.7*rng.Float64()
	classes := []Class{
		{Name: "eject", PerLinkRate: 0.5 + rng.Float64(), Terminal: true},
		{Name: "loop", PerLinkRate: rate, Out: []Transition{{To: 1, Prob: stay}, {To: 0, Prob: 1 - stay}}},
	}
	for i, chain := 1, 1+rng.Intn(4); i <= chain; i++ {
		classes = append(classes, Class{Name: fmt.Sprintf("late%d", i), PerLinkRate: rate,
			Out: []Transition{{To: ClassID(i), Prob: 1}}})
	}
	return &Model{Classes: classes, MsgFlits: msgFlits}
}

// kernelGraph builds the graph a fuzz input names by flags>>6: a small
// random cyclic graph, a torus-shaped one of 2–6 dimensions, a chain of
// late movers, or a random cyclic graph of 65–130 classes.
func kernelGraph(rng *traffic.RNG, flags uint8, msgFlits float64) *Model {
	switch flags >> 6 {
	case 1:
		return torusShapedModel(rng, 2+rng.Intn(5), msgFlits)
	case 2:
		return lateMoverModel(rng, msgFlits)
	case 3:
		return randomCyclicGraph(rng, 1+rng.Intn(4), 65+rng.Intn(66), msgFlits)
	}
	return randomCyclicModel(rng, msgFlits)
}

// kernelOptions decodes the option combination a fuzz input names: the
// three ablation switches.
func kernelOptions(flags uint8) Options {
	return Options{
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

// FuzzCyclicKernel: the fused kernel, which skips the classes that held
// still, is the generic damped iteration over iterate, bit for bit — the
// verdict, the sweep count, the saturated class and its ρ, and every
// ServiceTime, Wait and Utilization entry, including the partial iterate a
// non-finite sweep leaves — on random cyclic graphs (self-loops, longer
// cycles, multi-server groups, terminal fan-in), torus-shaped ones, chains
// of late movers and graphs of more than 64 classes, under every option
// combination, at loads from near zero to past saturation. The seeds
// cover all 24 combinations; flag 32 takes a subnormal message length,
// where a terminal class's x̄ does not stay s, and flags>>6 the graph.
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
	for seed := uint64(1); seed <= 10; seed++ {
		f.Add(seed, uint8(64)|uint8(seed%3))
		f.Add(seed, uint8(128)|uint8(seed%2)<<4)
	}
	f.Add(uint64(1), uint8(192))
	f.Add(uint64(2), uint8(192|4))
	var ws Workspace
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8) {
		rng := traffic.NewRNG(seed)
		s := float64(1+rng.Intn(64)) * (0.5 + rng.Float64())
		if flags&32 != 0 {
			s = math.SmallestNonzeroFloat64 * float64(1+2*rng.Intn(8))
		}
		m := kernelGraph(rng, flags, s)
		opt := kernelOptions(flags)
		g, err := Compile(m.Classes)
		if err != nil {
			t.Fatal(err)
		}
		if g.order != nil {
			t.Fatalf("seed %d: graph has no cycle", seed)
		}
		for probe := 0; probe < 4; probe++ {
			// The load ρ of the busiest class at x̄ = s: log-uniform near
			// zero, or up to past the precheck's ρ = 1.
			load := math.Pow(10, -6+4*rng.Float64())
			if rng.Intn(4) != 0 {
				load = 1.2 * rng.Float64()
			}
			scale := loadScale(m, load)
			if flags&32 != 0 {
				scale = load // rates a subnormal s cannot saturate
			}
			rates := ws.Bind(g, s)
			for i, c := range m.Classes {
				rates[i] = scale * c.PerLinkRate
			}
			if d := compareKernel(t, &ws, opt); d != "" {
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

// loadScale is the factor on m's rates that gives its busiest class
// utilisation load at x̄ = s, the precheck's limit at 1.
func loadScale(m *Model, load float64) float64 {
	var heaviest float64
	for _, c := range m.Classes {
		heaviest = math.Max(heaviest, c.PerLinkRate)
	}
	return load / (heaviest * m.MsgFlits)
}

// atLoad scales m's rates in place to load and returns m.
func atLoad(m *Model, load float64) *Model {
	scale := loadScale(m, load)
	for i := range m.Classes {
		m.Classes[i].PerLinkRate *= scale
	}
	return m
}

// bindLoad binds ws to m's cyclic graph with m's rates scaled to load.
func bindLoad(t *testing.T, ws *Workspace, m *Model, load float64) {
	t.Helper()
	g, err := Compile(m.Classes)
	if err != nil {
		t.Fatal(err)
	}
	if g.order != nil {
		t.Fatal("graph has no cycle")
	}
	scale, rates := loadScale(m, load), ws.Bind(g, m.MsgFlits)
	for i, c := range m.Classes {
		rates[i] = scale * c.PerLinkRate
	}
}

// compareKernel runs Stable and then the oracle on the rates bound in ws
// and names the first difference, or returns "".
func compareKernel(t *testing.T, ws *Workspace, opt Options) string {
	t.Helper()
	var got, want kernelOutcome
	got.run(ws, func() bool {
		stable, err := ws.Stable(opt)
		if err != nil {
			t.Fatal(err)
		}
		return stable
	})
	want.run(ws, ws.stableOracle)
	return got.diff(&want)
}

// moves reruns the oracle's damped iteration on a workspace compareKernel
// has run and returns, per sweep, whether each class's x̄ changed bits in
// it.
func (ws *Workspace) moves() [][]bool {
	x := ws.ServiceTime
	for i := range x {
		x[i] = ws.msgFlits
	}
	prev := append([]float64(nil), x...)
	var sweeps [][]bool
	record := func() {
		moved := make([]bool, len(x))
		for i := range x {
			moved[i] = math.Float64bits(x[i]) != math.Float64bits(prev[i])
		}
		sweeps = append(sweeps, moved)
		copy(prev, x)
	}
	calls := 0
	dampedOracle(func(x, out []float64) {
		if calls++; calls > 1 {
			record() // what the previous sweep moved
		}
		ws.iterate(x, out)
	}, x, ws.fx)
	record()
	return sweeps
}

// movedAgain reports whether some class moved in one sweep, held still in
// the next and moved again in a later one.
func movedAgain(sweeps [][]bool) bool {
	for i := range sweeps[0] {
		held := false
		for k := 1; k < len(sweeps); k++ {
			if held && sweeps[k][i] {
				return true
			}
			held = held || sweeps[k-1][i] && !sweeps[k][i]
		}
	}
	return false
}

// TestKernelHeldStillMovesAgain: a class skipped because it held still is
// redone as soon as a class it reads moves. On a chain of late movers
// each class holds still in the first sweeps and then moves; on
// torus-shaped graphs some class moves, holds still for a sweep and moves
// again. The kernel matches the oracle bit for bit on both, and the
// oracle's own trajectory shows that the premise held.
func TestKernelHeldStillMovesAgain(t *testing.T) {
	var ws Workspace
	late := lateMoverModel(traffic.NewRNG(1), 16)
	bindLoad(t, &ws, late, 0.5)
	if d := compareKernel(t, &ws, Options{}); d != "" {
		t.Fatalf("late movers: %s", d)
	}
	sweeps := ws.moves()
	for i := 2; i < len(late.Classes); i++ {
		if sweeps[i-2][i] || !sweeps[i-1][i] {
			t.Errorf("late movers: %s moved %v in sweep %d and %v in sweep %d, want still, then moving",
				late.Classes[i].Name, sweeps[i-2][i], i-1, sweeps[i-1][i], i)
		}
	}

	again := 0
	for seed := uint64(1); seed <= 120; seed++ {
		m := torusShapedModel(traffic.NewRNG(seed), 2+int(seed%5), 16)
		for _, load := range []float64{0.1, 0.2, 0.5, 0.8} {
			bindLoad(t, &ws, m, load)
			if d := compareKernel(t, &ws, Options{}); d != "" {
				t.Fatalf("seed %d load %v: %s", seed, load, d)
			}
			if movedAgain(ws.moves()) {
				again++
			}
		}
	}
	if again == 0 {
		t.Error("no torus-shaped graph had a class move, hold still and move again")
	}
}

// TestKernelLargeGraphs: graphs of more than 64 classes take the same
// path as small ones and match the oracle bit for bit — random cyclic
// graphs and torus-shaped ones of 70 and 130 classes, under the paper's
// options and two ablations, at loads from near zero to 1.2 times the
// precheck's limit, and on either side of the load where the iteration
// stops converging, where it runs longest.
func TestKernelLargeGraphs(t *testing.T) {
	var ws Workspace
	for _, n := range []int{70, 130} {
		rng := traffic.NewRNG(uint64(n))
		for _, m := range []*Model{randomCyclicGraph(rng, 1+rng.Intn(4), n, 16), torusShapedModel(rng, n-2, 16)} {
			for _, opt := range []Options{{}, {SingleServerGroups: true, NoBlockingCorrection: true}} {
				lo, hi := 0.0, 1.0
				for hi-lo > 1e-3 {
					mid := (lo + hi) / 2
					bindLoad(t, &ws, m, mid)
					if stable, _ := ws.Stable(opt); stable {
						lo = mid
					} else {
						hi = mid
					}
				}
				for _, load := range []float64{1e-4, 0.01, 0.1, 0.3, 0.6, 1, 1.2, lo, hi} {
					bindLoad(t, &ws, m, load)
					if d := compareKernel(t, &ws, opt); d != "" {
						t.Fatalf("%s, %d classes, %+v load %v: %s", m.Classes[1].Name, n, opt, load, d)
					}
				}
			}
		}
	}
}
