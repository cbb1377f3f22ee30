// Package core implements the paper's general analytical model for
// wormhole-routed networks (§2): a network is abstracted as a graph of
// channel classes, service times are resolved backwards from ejection
// channels to injection channels (Eq. 3/11), waiting times come from
// M/G/m queues (Eq. 4–8), and the M/G/m results are corrected for
// wormhole routing by the blocking probability of Eq. 9/10.
//
// # Channel classes
//
// A class stands for a set of physical channels that are statistically
// identical by symmetry (e.g. "all up-links from level 2 to level 3 of the
// fat-tree"). Physical channels within a class are organised in groups of
// Servers parallel links; a group is the unit worms contend for, and is
// modelled as one m-server queue. The fat-tree's up-link pair is a group
// with Servers = 2 — the paper's motivating example of a multiple-server
// channel — while deterministic-routing networks use Servers = 1
// throughout.
//
// # Resolution
//
// Each class i has a mean service time
//
//	x̄ᵢ = Σ_t Prob_t · (x̄_{t.To} + P(i|t) · W̄_{t.To})      (Eq. 3/11)
//
// over its outgoing transitions t, where W̄ⱼ is the M/G/m waiting time of
// the target group fed the combined rate Servers_j·λⱼ (this is the
// published correction to the paper's Eq. 21/23) and
//
//	P(i|t) = 1 − m_j · (λᵢ / Λⱼ) · R(i|t),  R(i|t) = Prob_t / Groups_t  (Eq. 10)
//
// is the probability that a worm arriving on one channel of class i is
// actually blocked by worms from *other* input links rather than by its
// own occupancy. Terminal (ejection) classes have x̄ = MsgFlits (Eq. 16).
//
// How the system is solved follows from the graph. When no class can
// reach itself — the fat-tree, the hypercube, every tree network — Compile
// records a topological order with every class after the classes it
// targets, and Resolve walks it once, ejection channels first, exactly as
// the paper resolves service times backwards: each class sees its
// targets' final x̄ and W̄, so one pass is the solution and the first
// class found saturated is the verdict. A graph with a cycle (k-ary
// n-cube classes that feed themselves) is solved by damped Jacobi sweeps
// x ← ½·x + ½·f(x) from x̄ = MsgFlits to a max-norm change below 1e-10 in
// one fused kernel. A sweep redoes only what the last one moved: the wait
// of a targeted class whose x̄ changed bits, and the sum of a class that
// changed or targets one that did. Anything else would reproduce its own
// bits and add 0 to the change, so the skip is the same arithmetic; on a
// torus the higher dimensions settle within a few hundred sweeps and only
// dimension 0 and injection keep moving. A non-finite sweep, or 10,000
// sweeps without converging, is divergence, and the verdict names the
// most loaded class.
// That budget is where a cyclic graph saturates: on a k ≥ 3 torus the
// iteration converges in 9,980–10,000 sweeps just below the load the
// Eq. 26 search reports and runs the budget out just above it.
//
// # Build once, resolve many
//
// Only the per-class rates depend on the offered load λ₀, and only the
// terminal service time and the wormhole C²b on the message length s.
// Compile validates everything else once — names, server counts,
// transitions, which classes a transition targets, the order — into an
// immutable Graph that serves every s; a caller then binds a reusable
// Workspace to it and a message length, writes the rates and calls
// Resolve, which computes the rate-only blocking factors P(i|t)
// once and the M/G/m wait once per class in the ordered pass, or once per
// targeted class that moved per sweep, and allocates nothing on a stable
// point once the workspace has grown to the graph.
// (*Model).Resolve is Compile plus a fresh workspace — the same solver.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/queueing"
)

// ClassID indexes a channel class within a Model.
type ClassID int

// Transition routes messages from one class to another.
type Transition struct {
	// To is the target class.
	To ClassID
	// Prob is the probability that a message leaving the source class
	// takes this transition (summed over all reachable target groups).
	Prob float64
	// Groups is the number of distinct, equally likely target groups this
	// transition spreads over (e.g. 4 children, 3 siblings). The
	// per-group routing probability used in the blocking correction is
	// Prob/Groups. Zero means 1.
	Groups int
}

// Class describes one channel class.
type Class struct {
	// Name labels the class in reports and errors, e.g. "up<2,3>".
	Name string
	// Servers is the number of parallel physical links per arbitration
	// group (m in the paper's M/G/m treatment). Zero means 1.
	Servers int
	// PerLinkRate is the message arrival rate per physical link,
	// messages/cycle (the paper's λ for that channel).
	PerLinkRate float64
	// Terminal marks ejection channels, whose service time is the message
	// length (Eq. 16). Terminal classes must have no transitions.
	Terminal bool
	// Out lists the outgoing transitions; their Probs must sum to 1 for
	// non-terminal classes.
	Out []Transition
}

// Options toggles the model's novel ingredients for ablation studies.
// The zero value is the paper's model.
type Options struct {
	// NoBlockingCorrection drops Eq. 9/10 and charges the full M/G/m wait
	// at every hop (P(i|j) = 1), as a store-and-forward-style analysis
	// would.
	NoBlockingCorrection bool
	// SingleServerGroups models every m-server group as m independent
	// M/G/1 queues fed the per-link rate, discarding the paper's
	// multiple-server treatment.
	SingleServerGroups bool
	// NoPairRateCorrection reproduces the uncorrected conference text of
	// Eq. 21/23, feeding the M/G/m formula the per-link rate instead of
	// the group rate. Kept for the erratum ablation.
	NoPairRateCorrection bool
}

// Model is a channel-class graph plus workload parameters.
type Model struct {
	// Classes of the network. ClassIDs index this slice.
	Classes []Class
	// MsgFlits is the fixed message length in flits (the paper's s/f).
	MsgFlits float64
}

// Result holds the resolved per-class quantities.
type Result struct {
	// ServiceTime is x̄ per class (cycles).
	ServiceTime []float64
	// Wait is W̄ per class: the mean wait to acquire a server of one group
	// of the class, before the blocking correction (the correction is
	// applied per incoming channel during resolution).
	Wait []float64
	// Utilization is the per-server utilization ρ per class.
	Utilization []float64
}

// ErrUnstable reports that some channel is saturated at the offered load,
// so no steady state exists and the model's latency is undefined.
var ErrUnstable = errors.New("core: offered load saturates a channel")

// UnstableError wraps ErrUnstable with the first saturated class.
type UnstableError struct {
	// Class is the saturated class name.
	Class string
	// Rho is its per-server utilization.
	Rho float64
}

// Error implements error.
func (e *UnstableError) Error() string {
	return fmt.Sprintf("core: class %s saturated (rho=%.4f)", e.Class, e.Rho)
}

// Unwrap makes errors.Is(err, ErrUnstable) work.
func (e *UnstableError) Unwrap() error { return ErrUnstable }

// IsUnstable reports whether err means the offered load saturates the
// network (errors.Is on ErrUnstable anywhere in the chain).
func IsUnstable(err error) bool { return errors.Is(err, ErrUnstable) }

// validateClasses checks structural invariants: transition probabilities
// sum to 1 on non-terminal classes, terminal classes have no transitions,
// rates and server counts are sane.
func validateClasses(classes []Class) error {
	for i, c := range classes {
		if c.PerLinkRate < 0 || math.IsNaN(c.PerLinkRate) {
			return fmt.Errorf("core: class %s: bad rate %v", c.Name, c.PerLinkRate)
		}
		if c.Servers < 0 {
			return fmt.Errorf("core: class %s: negative server count", c.Name)
		}
		if c.Terminal {
			if len(c.Out) != 0 {
				return fmt.Errorf("core: terminal class %s has transitions", c.Name)
			}
			continue
		}
		var sum float64
		for _, t := range c.Out {
			if t.To < 0 || int(t.To) >= len(classes) {
				return fmt.Errorf("core: class %s: transition to unknown class %d", c.Name, t.To)
			}
			if t.Prob < 0 || t.Prob > 1+1e-12 {
				return fmt.Errorf("core: class %s: transition probability %v", c.Name, t.Prob)
			}
			if t.Groups < 0 {
				return fmt.Errorf("core: class %s: negative group fan-out", c.Name)
			}
			sum += t.Prob
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("core: class %s: transition probabilities sum to %v, want 1 (id %d)", c.Name, sum, i)
		}
	}
	return nil
}

func (c *Class) servers() int {
	if c.Servers < 1 {
		return 1
	}
	return c.Servers
}

func (t *Transition) groups() float64 {
	if t.Groups < 1 {
		return 1
	}
	return float64(t.Groups)
}

// Graph is the structure of a Model — its classes and transitions, and
// neither rates nor message length — built once by Compile. It is
// immutable and safe for concurrent use; one graph serves every message
// length and load (Workspace.Bind takes both).
type Graph struct {
	classes []Class // private copy: Servers normalised, PerLinkRate unused
	// targeted marks the classes some transition points at — the only
	// ones whose wait the iteration needs.
	targeted []bool
	// Class i's transitions own block[offset[i]:offset[i+1]] of a Workspace.
	offset []int
	// order lists every class after all the classes it targets, ejection
	// channels first, when no class can reach itself; it is nil when the
	// graph has a cycle, self-loops included. It shares offset's array.
	order []int
}

// Compile validates the classes' structure (transition probabilities sum
// to 1 on non-terminal classes, terminal classes have no transitions,
// server counts and whatever rates they carry are sane) and builds their
// Graph.
func Compile(classes []Class) (*Graph, error) {
	if err := validateClasses(classes); err != nil {
		return nil, err
	}
	n, transitions := len(classes), 0
	for i := range classes {
		transitions += len(classes[i].Out)
	}
	ints := make([]int, 2*n+1)
	g := &Graph{classes: make([]Class, n), targeted: make([]bool, n), offset: ints[:n+1]}
	// The sort keeps its per-class state in offset[1:] until the loop
	// below writes the offsets over it.
	sorter := topoSort{classes: classes, state: ints[1 : n+1], order: ints[n+1 : n+1]}
	if sorter.placeAll() {
		g.order = sorter.order
	}
	// Every class's transitions are copied into one slab, in class order:
	// class i's are slab[offset[i]:offset[i+1]].
	slab := make([]Transition, 0, transitions)
	for i, c := range classes {
		slab = append(slab, c.Out...)
		c.Servers, c.Out = c.servers(), slab[g.offset[i]:len(slab):len(slab)]
		for _, t := range c.Out {
			g.targeted[t.To] = true
		}
		g.classes[i], g.offset[i+1] = c, len(slab)
	}
	return g, nil
}

// topoSort orders classes targets first by a depth-first post-order over
// the transitions: a class is placed once every class it targets is.
type topoSort struct {
	classes []Class
	state   []int // per class, zeroed: unseen, onPath or placed
	order   []int // appended to in place; cap(order) ≥ len(classes)
}

const (
	onPath = 1 + iota
	placed
)

// placeAll places every class and reports whether the graph is acyclic.
func (s *topoSort) placeAll() bool {
	for i := range s.classes {
		if !s.place(ClassID(i)) {
			return false
		}
	}
	return true
}

// place places class i after its targets; it reports false if a cycle
// runs through the path that reached it.
func (s *topoSort) place(i ClassID) bool {
	switch s.state[i] {
	case onPath:
		return false
	case placed:
		return true
	}
	s.state[i] = onPath
	for _, t := range s.classes[i].Out {
		if !s.place(t.To) {
			return false
		}
	}
	s.state[i] = placed
	s.order = append(s.order, int(i))
	return true
}

// Len returns the number of classes.
func (g *Graph) Len() int { return len(g.classes) }

// Name returns the label of class i.
func (g *Graph) Name(i ClassID) string { return g.classes[i].Name }

// Out returns the transitions of class i. The slice is the graph's own
// and must not be modified.
func (g *Graph) Out(i ClassID) []Transition { return g.classes[i].Out }

// Servers returns the group size m of class i (at least 1).
func (g *Graph) Servers(i ClassID) int { return g.classes[i].Servers }

// Workspace is the reusable scratch and result storage of one Resolve:
// Bind it to a graph and a message length, fill the returned rates, call
// Resolve and read the result slices, which stay valid until the next Bind
// or Release. It may serve graphs of different sizes and message lengths
// in turn and carries nothing over from a failed call. Not safe for concurrent use: take one per call from
// AcquireWorkspace.
type Workspace struct {
	// ServiceTime, Wait and Utilization are x̄, W̄ and ρ per class after a
	// successful Resolve (see Result).
	ServiceTime, Wait, Utilization []float64
	// Iterations is the number of sweeps the last Resolve ran over the
	// classes: 1 for an acyclic graph's ordered pass, the fixed-point
	// iteration count for a cyclic one.
	Iterations int

	g        *Graph
	msgFlits float64 // s, bound with the rates: the terminal x̄ and the wormhole C²b
	opt      Options
	buf      []float64 // backs every slice here
	rates    []float64
	fx       []float64
	qRate    []float64 // the arrival rate the M/G/m formula is fed, per class
	block    []float64 // P(i|t) per transition
	// The cyclic kernel's per-class scratch, carved from ibuf: movedAt[i]
	// is the last sweep in which class i's x̄ changed bits (0 for the
	// start), live and waits the classes whose sum and whose wait the next
	// sweep recomputes.
	ibuf                 []int
	movedAt, live, waits []int
	// sat and satRho are the verdict of the last Stable that found a
	// channel saturated: the class (-1 when a diverged iteration named
	// none) and its per-server utilisation.
	sat    int
	satRho float64
}

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace returns a pooled workspace; Release hands it back.
func AcquireWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// Release returns the workspace to the pool. Its result slices must not be
// used afterwards.
func (ws *Workspace) Release() {
	ws.g = nil
	workspaces.Put(ws)
}

// Bind sizes the workspace for g with messages of msgFlits flits and
// returns the per-link rate slice (messages/cycle per class, the paper's
// λ) the caller must fill before Resolve.
func (ws *Workspace) Bind(g *Graph, msgFlits float64) []float64 {
	n := len(g.classes)
	if need := 6*n + g.offset[n]; cap(ws.buf) < need {
		ws.buf = make([]float64, need)
	}
	rest := ws.buf
	cut := func(k int) []float64 {
		s := rest[:k:k]
		rest = rest[k:]
		return s
	}
	ws.g, ws.msgFlits = g, msgFlits
	ws.rates, ws.fx, ws.qRate = cut(n), cut(n), cut(n)
	ws.ServiceTime, ws.Wait, ws.Utilization, ws.block = cut(n), cut(n), cut(n), cut(g.offset[n])
	return ws.rates
}

// Rate returns the per-link rate of class i the caller wrote after Bind.
func (ws *Workspace) Rate(i ClassID) float64 { return ws.rates[i] }

// Blocking returns P(i|t) of Eq. 10 for each transition t of class i, in
// the order of the graph's Out(i): the factor by which the model scales
// the target group's M/G/m wait for worms arriving from class i. It is
// valid after a Resolve or Stable of the bound graph, which compute it
// from the rates before anything can saturate.
func (ws *Workspace) Blocking(i ClassID) []float64 {
	return ws.block[ws.g.offset[i]:ws.g.offset[i+1]]
}

// wait is the group waiting time of class i at mean service time x under
// the options Resolve decoded, with Eq. 5's C²b = (x̄ − s)²/x̄².
func (ws *Workspace) wait(i int, x float64) float64 {
	servers := ws.g.classes[i].Servers
	if ws.opt.SingleServerGroups {
		servers = 1
	}
	if servers == 1 {
		return waitWormhole1(ws.qRate[i], x, ws.msgFlits)
	}
	return queueing.WaitMGm(servers, ws.qRate[i], x, queueing.CV2Wormhole(x, ws.msgFlits))
}

// waitWormhole1 is queueing.WaitMGm(1, lambda, x, queueing.CV2Wormhole(x, s)),
// bit for bit: the single-server wormhole channel is what the fixed-point
// sweeps of torus and hypercube graphs evaluate almost exclusively, and
// with m = 1 the Erlang recurrences collapse to three divisions. Every
// expression below keeps the shape those functions give it (only
// multiplications and divisions by 1 are dropped), and anything but an
// ordinary operating point goes to them.
func waitWormhole1(lambda, x, s float64) float64 {
	d := (x - s) / x
	if !(lambda > 0 && x > 0 && s >= 0 && d*d >= 0) { // d is NaN at x = +Inf
		return queueing.WaitMGm(1, lambda, x, queueing.CV2Wormhole(x, s))
	}
	a := lambda * x
	if a >= 1 {
		return math.Inf(1)
	}
	return (1 + d*d) / 2 * waitMM1(a, x)
}

// waitMM1 is WaitMGm's M/M/1 wait at a = λx̄ < 1, before its (1 + C²b)/2.
func waitMM1(a, x float64) float64 {
	b := a / (1 + a)       // ErlangB(1, a)
	c := b / (1 - a*(1-b)) // ErlangC(1, a)
	return c * x / (1 - a)
}

// blocking returns P(i|t) of Eq. 10, clamped to [0,1], for a transition
// with per-group routing probability perGroup from a class with per-link
// rate rateFrom into a class of `servers` links with per-link rate rateTo.
func blocking(opt Options, rateFrom float64, servers int, rateTo, perGroup float64) float64 {
	if opt.NoBlockingCorrection {
		return 1
	}
	mj := float64(servers)
	lambdaJ := mj * rateTo
	if opt.SingleServerGroups {
		// Each link of the pair is its own group: per-link rate and the
		// per-group routing probability splits over servers*groups links.
		mj = 1
		lambdaJ = rateTo
	}
	if lambdaJ <= 0 {
		return 1
	}
	r := perGroup
	if opt.SingleServerGroups {
		r /= float64(servers)
	}
	p := 1 - mj*(rateFrom/lambdaJ)*r
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// service is Eq. 3/11 for class i: its mean service time given the
// targets' service times x and the waits in ws.Wait.
func (ws *Workspace) service(i int, x []float64) float64 {
	g := ws.g
	c := &g.classes[i]
	if c.Terminal {
		return ws.msgFlits
	}
	var sum float64
	for ti, block := range ws.block[g.offset[i]:g.offset[i+1]] {
		t := &c.Out[ti]
		sum += t.Prob * (x[t.To] + block*ws.Wait[t.To])
	}
	return sum
}

// The cyclic fixed point's damping d, tolerance and sweep budget.
const damping, tolerance, maxSweeps = 0.5, 1e-10, 10_000

// damped runs the cyclic fixed point in ServiceTime, reporting convergence
// and counting sweeps in Iterations. A non-finite sum stops the update
// where it appears, leaving the partial iterate firstUnstable reads.
//
// A sweep recomputes only what the last one changed: the wait of a
// targeted class whose x̄ moved, and the sum and update of a class that
// moved or targets one that did. Moving is judged by the bits, so a class
// left out would have reproduced its own x̄ bit for bit and added 0 to
// the change: skipping it is the same arithmetic. The classes to redo are
// walked from the lists relist builds, rebuilt when the moved set changes.
func (ws *Workspace) damped() bool {
	g, s, n := ws.g, ws.msgFlits, len(ws.g.classes)
	classes, offset := g.classes[:n], g.offset[:n+1]
	x, fx, w, q, block := ws.ServiceTime[:n], ws.fx[:n], ws.Wait[:n], ws.qRate[:n], ws.block
	if cap(ws.ibuf) < 3*n {
		ws.ibuf = make([]int, 3*n)
	}
	movedAt := ws.ibuf[:n:n]
	ws.movedAt, ws.live, ws.waits = movedAt, ws.ibuf[n:n:2*n], ws.ibuf[2*n:2*n:3*n]
	for i := range x {
		x[i], movedAt[i] = s, 0
	}
	ws.relist(0)
	single := ws.opt.SingleServerGroups
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		ws.Iterations = sweep
		for _, j := range ws.waits {
			c := &classes[j]
			xj := x[j]
			if c.Servers == 1 || single {
				// waitWormhole1 inlined (s > 0 here), critical divisions first.
				lambda, a := q[j], q[j]*xj
				mm1 := waitMM1(a, xj)
				if d := (xj - s) / xj; lambda > 0 && xj > 0 && d*d >= 0 && a < 1 {
					w[j] = (1 + d*d) / 2 * mm1
					continue
				}
			}
			w[j] = ws.wait(j, xj)
		}
		for _, i := range ws.live {
			c := &classes[i]
			if c.Terminal {
				fx[i] = s
				continue
			}
			out := c.Out
			bl := block[offset[i]:][:len(out)]
			var sum float64 // service's sum inlined: a call costs a sweep 4 %
			for ti := range out {
				t := &out[ti]
				sum += t.Prob * (x[t.To] + bl[ti]*w[t.To])
			}
			fx[i] = sum
		}
		var delta float64
		changed := false
		for _, i := range ws.live {
			f := fx[i]
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
			nxt := (1-damping)*x[i] + damping*f
			if d := math.Abs(nxt - x[i]); d > delta {
				delta = d
			}
			moved := math.Float64bits(nxt) != math.Float64bits(x[i])
			if moved != (movedAt[i] == sweep-1) {
				changed = true
			}
			if moved {
				movedAt[i] = sweep
			}
			x[i] = nxt
		}
		if delta < tolerance {
			return true
		}
		if changed {
			ws.relist(sweep)
		}
	}
	return false
}

// relist rebuilds, after the given sweep, the lists of what the next one
// recomputes: the waits of the targeted classes that moved in it, and the
// sums of the classes that moved or target one that did, in class order.
func (ws *Workspace) relist(sweep int) {
	g, movedAt := ws.g, ws.movedAt
	live, waits := ws.live[:0], ws.waits[:0]
	for i := range g.classes {
		hot := movedAt[i] == sweep
		if hot && g.targeted[i] {
			waits = append(waits, i)
		}
		for _, t := range g.classes[i].Out {
			if hot {
				break
			}
			hot = movedAt[t.To] == sweep
		}
		if hot {
			live = append(live, i)
		}
	}
	ws.live, ws.waits = live, waits
}

// Resolve computes service times and waiting times for every class of the
// bound graph at the rates written into Bind's slice. It returns an
// *UnstableError (wrapping ErrUnstable) when a channel is saturated; the
// result slices are then meaningless.
func (ws *Workspace) Resolve(opt Options) error {
	if stable, err := ws.Stable(opt); stable || err != nil {
		return err
	}
	name := "unknown"
	if ws.sat >= 0 {
		name = ws.g.classes[ws.sat].Name
	}
	return &UnstableError{Class: name, Rho: ws.satRho}
}

// Stable is Resolve for callers that need only the verdict, such as the
// Eq. 26 search that probes past saturation: a saturated channel makes it
// return false and builds no error value, so it allocates nothing. The
// error reports a bad message length or rate only.
func (ws *Workspace) Stable(opt Options) (bool, error) {
	g := ws.g
	ws.opt, ws.Iterations = opt, 0
	if !(ws.msgFlits > 0) {
		return false, fmt.Errorf("core: MsgFlits = %v, must be positive", ws.msgFlits)
	}
	for i, rate := range ws.rates {
		if rate < 0 || math.IsNaN(rate) {
			return false, fmt.Errorf("core: class %s: bad rate %v", g.classes[i].Name, rate)
		}
	}
	for i, rate := range ws.rates {
		c := &g.classes[i]
		ws.qRate[i] = rate
		if !opt.SingleServerGroups && !opt.NoPairRateCorrection {
			ws.qRate[i] = float64(c.Servers) * rate
		}
		for ti := range c.Out {
			t := &c.Out[ti]
			ws.block[g.offset[i]+ti] = blocking(opt, rate, g.classes[t.To].Servers, ws.rates[t.To], t.Prob/t.groups())
		}
	}
	if g.order != nil {
		return ws.resolveOrdered(), nil
	}

	// Stability precheck on the raw transmission time: if a channel
	// cannot even carry its load at x̄ = MsgFlits it can never stabilise.
	for i := range ws.rates {
		if !ws.checkStable(i, ws.msgFlits) {
			return false, nil
		}
	}
	if !ws.damped() {
		// Divergence means some queue has no steady state at this load.
		ws.firstUnstable()
		return false, nil
	}
	for i, x := range ws.ServiceTime {
		if !ws.checkStable(i, x) {
			return false, nil
		}
		ws.finish(i)
	}
	return true, nil
}

// resolveOrdered solves an acyclic graph in one pass over g.order: every
// class is resolved after its targets, so Eq. 3/11 reads their final x̄
// and W̄. The first class that cannot carry its load is the verdict; a
// NaN utilisation counts as saturated, so no non-finite wait reaches an
// upstream class.
func (ws *Workspace) resolveOrdered() bool {
	ws.Iterations = 1
	for _, i := range ws.g.order {
		x := ws.service(i, ws.ServiceTime)
		if rho := ws.utilization(i, x); !(rho < 1) {
			ws.sat, ws.satRho = i, rho
			return false
		}
		ws.ServiceTime[i] = x
		ws.finish(i)
	}
	return true
}

// finish records W̄ and ρ of class i at its resolved service time.
func (ws *Workspace) finish(i int) {
	x := ws.ServiceTime[i]
	ws.Wait[i] = ws.wait(i, x)
	servers := ws.g.classes[i].Servers
	ws.Utilization[i] = queueing.Utilization(servers, float64(servers)*ws.rates[i], x)
}

// utilization is the per-server ρ of class i at mean service time x, of
// the queue the options model it as.
func (ws *Workspace) utilization(i int, x float64) float64 {
	servers := ws.g.classes[i].Servers
	rate := float64(servers) * ws.rates[i]
	if ws.opt.SingleServerGroups {
		servers, rate = 1, ws.rates[i]
	}
	return queueing.Utilization(servers, rate, x)
}

// checkStable reports whether class i can carry its load with mean
// service time x, recording the verdict when it cannot.
func (ws *Workspace) checkStable(i int, x float64) bool {
	if rho := ws.utilization(i, x); rho >= 1 {
		ws.sat, ws.satRho = i, rho
		return false
	}
	return true
}

// firstUnstable records the verdict of a diverged iteration, naming the
// most loaded class.
func (ws *Workspace) firstUnstable() {
	ws.sat, ws.satRho = -1, math.Inf(1)
	var maxRho float64 = -1
	for i, xi := range ws.ServiceTime {
		if rho := ws.utilization(i, xi); rho > maxRho {
			maxRho = rho
			ws.sat, ws.satRho = i, rho
		}
	}
}

// Resolve computes service times and waiting times for every class at the
// configured rates. It returns an *UnstableError (wrapping ErrUnstable)
// when a channel is saturated. It is Compile, Bind and Workspace.Resolve
// in one call, for models built per operating point.
func (m *Model) Resolve(opt Options) (*Result, error) {
	g, err := Compile(m.Classes)
	if err != nil {
		return nil, err
	}
	// A workspace of its own: the Result keeps its slices.
	ws := new(Workspace)
	rates := ws.Bind(g, m.MsgFlits)
	for i := range m.Classes {
		rates[i] = m.Classes[i].PerLinkRate
	}
	if err := ws.Resolve(opt); err != nil {
		return nil, err
	}
	return &Result{ServiceTime: ws.ServiceTime, Wait: ws.Wait, Utilization: ws.Utilization}, nil
}
