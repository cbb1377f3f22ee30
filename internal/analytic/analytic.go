// Package analytic applies the general wormhole model of package core to
// concrete networks: the butterfly fat-tree (the paper's §3, Eq. 12–26,
// in both a closed-form transcription and a generated channel graph that
// must agree), the binary hypercube, and the unidirectional k-ary n-cube
// (the "other networks" of §4). Every network is a compiled channel-class
// graph, its injection class, and the per-link rate of each class per
// unit λ₀; a Model is a view of one at a message length and variant. Model
// answers the latency (Eq. 25), the saturation throughput by the paper's
// operating-point condition x̄₀₁ = 1/λ₀ (Eq. 26) and the per-class report;
// FatTreeModel and TorusModel embed it and add only what is particular to
// their family.
//
// # What depends on λ₀, on s and on the variant
//
// A network is what none of them touch: the channel classes and routing
// probabilities, the per-link rates at λ₀ = 1, D̄, the compiled
// core.Graph and the fat-tree's closed-form tables (n, P↑ₗ). A
// constructor builds it once, in a fixed number of allocations whatever
// the network's size: every class name is a slice of one string and every
// transition list a slice of one slab. A Model is a view of a network: its
// name, its message length s and its variant (core.Options), nothing
// else; View takes another view of a built network for one allocation,
// the name, and is bit for bit the model the constructor would build
// (FuzzModelView). The message length enters only where the paper's
// equations put it — the terminal service time (Eq. 16) and the wormhole
// C²b (Eq. 5) — so it is bound into the workspace with the rates, and
// the variant only chooses how a group is solved. Every family's rates
// are linear in λ₀, so an evaluation writes λ₀·perLink (Eq. 14/15 for the
// fat-tree, flow conservation for the cubes) into a pooled
// core.Workspace bound to the graph and s, and resolves; the fat-tree's
// paper variant instead runs the closed-form recurrences on stack arrays.
// A stable point allocates nothing, and the rate expressions and solver
// arithmetic are those of a graph rebuilt per call, so results are
// identical to the last bit (testdata/golden.txt).
//
// # Errors are built on the error path
//
// An unstable point's *core.UnstableError, with its label (the fat-tree
// closed form's "<class>@<model>"), is built only when Latency,
// ChannelStats or Resolve returns it. Predictor.Predict reports saturation
// as a flag instead (core.Workspace.Stable, and the closed form's
// saturation value), so neither a sweep cell past saturation nor the
// Eq. 26 search, which probes past it on every other bisection step,
// allocates.
package analytic

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solve"
)

// Per-layer counters (rendered on /metrics by the serve layer), each
// added to once per model build, resolve or search.
var (
	modelsBuilt     = obs.NewCounter("analytic_models_built_total")
	fixedPointIters = obs.NewCounter("analytic_fixedpoint_iterations_total")
	satSearches     = obs.NewCounter("analytic_saturation_searches_total")
	satProbes       = obs.NewCounter("analytic_saturation_probes_total")
)

// SaturationSearches returns how many Eq. 26 saturation searches this
// process has run — the read other layers use to attribute a search to
// their own work (a delta around a call).
func SaturationSearches() int64 { return satSearches.Load() }

// Latency is the model's prediction at one operating point.
type Latency struct {
	// Total is the average message latency L in cycles (Eq. 25).
	Total float64
	// WaitInj is W̄ at the injection channel (source queueing).
	WaitInj float64
	// ServiceInj is x̄ at the injection channel.
	ServiceInj float64
	// AvgDist is the average path length D̄ in channels.
	AvgDist float64
}

// Model is one network instance of the general model (§2) at one message
// length and variant: a light view — name, message length, options — over
// the network every view of that instance shares. It is immutable and
// safe for concurrent use; FatTreeModel and TorusModel build it, and View
// takes another view of a network already built.
type Model struct {
	net      *network
	name     string
	msgFlits float64
	opt      core.Options
	// closed, when set, answers Latency in place of the graph: the
	// fat-tree's closed form for the paper variant.
	closed bool
}

// network is what every view of one network instance shares: everything
// that depends on neither λ₀, the message length nor the variant. A
// constructor builds it once, in a fixed number of allocations whatever
// the network's size; it is immutable and safe for concurrent use.
type network struct {
	family  family
	numProc int
	k, dims int // the torus radix and dimension count; 0 for the fat-tree
	avgDist float64
	classes []core.Class // the graph's structure; every PerLinkRate is 0
	graph   *core.Graph
	inj     core.ClassID // the injection class, which Eq. 25 and Eq. 26 read
	perLink []float64    // perLink[i] is class i's per-link rate at λ₀ = 1
	// n and upProb are the fat-tree's closed-form tables: n = log4 N and
	// upProb[l] = P↑_l (Eq. 12), l = 0..n. upProb is nil for the cubes.
	n      int
	upProb []float64
}

// family selects how a network names itself.
type family int

const (
	familyFatTree family = iota
	familyHypercube
	familyTorus
)

// init compiles the channel graph and fills in the rest of the network.
func (net *network) init(avgDist float64, classes []core.Class, inj core.ClassID, perLink []float64) error {
	g, err := core.Compile(classes)
	if err != nil {
		return err
	}
	net.avgDist, net.classes, net.graph, net.inj, net.perLink = avgDist, classes, g, inj, perLink
	modelsBuilt.Add(1)
	return nil
}

// view is the network's model for messages of msgFlits flits under opt.
// Its name, e.g. "bft-1024/s=16", is the instance's and fmt's %g of the
// message length; it is the view's one allocation.
func (net *network) view(msgFlits float64, opt core.Options) Model {
	var buf [64]byte
	b := buf[:0]
	switch net.family {
	case familyFatTree:
		b = strconv.AppendInt(append(b, "bft-"...), int64(net.numProc), 10)
	case familyHypercube:
		b = strconv.AppendInt(append(b, "hcube-"...), int64(net.numProc), 10)
	default:
		b = strconv.AppendInt(append(b, "torus-"...), int64(net.k), 10)
		b = strconv.AppendInt(append(b, "ary"...), int64(net.dims), 10)
		b = append(b, "cube"...)
	}
	b = strconv.AppendFloat(append(b, "/s="...), msgFlits, 'g', -1, 64)
	return Model{net: net, name: string(b), msgFlits: msgFlits, opt: opt,
		closed: net.family == familyFatTree && opt == (core.Options{})}
}

// checkMsgFlits rejects a message length that is not positive.
func checkMsgFlits(msgFlits float64) error {
	if !(msgFlits > 0) {
		return fmt.Errorf("analytic: message length %v must be positive", msgFlits)
	}
	return nil
}

// View returns the model of m's network for messages of msgFlits flits
// under opt: bit for bit what the family's constructor returns for the
// same instance, message length and options, sharing m's classes, rates,
// compiled graph, D̄ and closed-form tables instead of building them
// again. It is the one way to take another view of a built network, and
// it allocates only the view's name.
func (m *Model) View(msgFlits float64, opt core.Options) (Model, error) {
	if err := checkMsgFlits(msgFlits); err != nil {
		return Model{}, err
	}
	return m.net.view(msgFlits, opt), nil
}

// className writes prefix, the integers joined by commas, and suffix into
// b and returns the name as a slice of b's buffer. A family grows b to
// hold all its names first, so the names of a model share one allocation.
func className(b *strings.Builder, prefix, suffix string, ints ...int) string {
	start := b.Len()
	b.WriteString(prefix)
	var digits [20]byte
	for i, v := range ints {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(digits[:0], int64(v), 10))
	}
	b.WriteString(suffix)
	return b.String()[start:]
}

// saturation is the verdict of a closed-form evaluation: the first class
// found saturated and its per-server utilisation, or class stable.
type saturation struct {
	class core.ClassID
	rho   float64
}

// stable is saturation's class on a stable point.
const stable core.ClassID = -1

// Name identifies the model instance, e.g. "bft-1024/s=16".
func (m *Model) Name() string { return m.name }

// MsgFlits returns the configured message length.
func (m *Model) MsgFlits() float64 { return m.msgFlits }

// AvgDist returns D̄, the average path length in channels.
func (m *Model) AvgDist() float64 { return m.net.avgDist }

// Latency predicts the average latency at per-processor message rate
// lambda0; it returns an error wrapping core.ErrUnstable past saturation.
func (m *Model) Latency(lambda0 float64) (Latency, error) {
	if lambda0 < 0 || math.IsNaN(lambda0) {
		return Latency{}, fmt.Errorf("analytic: bad arrival rate %v", lambda0)
	}
	if m.closed {
		lat, sat := m.closedForm(lambda0)
		if sat.class != stable {
			return Latency{}, &core.UnstableError{Class: m.net.graph.Name(sat.class) + "@" + m.name, Rho: sat.rho}
		}
		return lat, nil
	}
	return m.graphLatency(lambda0)
}

// graphLatency resolves the channel graph at λ₀ and assembles Eq. 25 from
// the injection class.
func (m *Model) graphLatency(lambda0 float64) (Latency, error) {
	ws := core.AcquireWorkspace()
	defer ws.Release()
	if err := m.Resolve(ws, lambda0); err != nil {
		return Latency{}, err
	}
	return m.latencyOf(ws), nil
}

// latencyOf assembles Eq. 25 from the injection class of a resolved
// workspace.
func (m *Model) latencyOf(ws *core.Workspace) Latency {
	inj := m.net.inj
	return Latency{
		Total:      ws.Wait[inj] + ws.ServiceTime[inj] + m.net.avgDist - 1,
		WaitInj:    ws.Wait[inj],
		ServiceInj: ws.ServiceTime[inj],
		AvgDist:    m.net.avgDist,
	}
}

// Predictor predicts operating points of one model in turn — a curve's
// loads, the probes of a saturation search — on one workspace, acquired
// on first use (a closed form needs none), and counts their fixed-point
// iterations once, in Done. Each prediction binds the workspace afresh,
// so it is bit for bit the one a fresh Predictor makes.
type Predictor struct {
	m     *Model
	ws    *core.Workspace
	iters int64
}

// Predictor returns a Predictor over m; call Done when finished.
func (m *Model) Predictor() Predictor { return Predictor{m: m} }

// Predict is Latency for callers that take saturation for an answer
// rather than a failure — a sweep cell's +Inf, a probe of the Eq. 26
// search: past saturation it reports saturated and builds no error value,
// so no operating point allocates. Its error reports a bad arrival rate
// only.
func (p *Predictor) Predict(lambda0 float64) (lat Latency, saturated bool, err error) {
	m := p.m
	if lambda0 < 0 || math.IsNaN(lambda0) {
		return Latency{}, false, fmt.Errorf("analytic: bad arrival rate %v", lambda0)
	}
	if m.closed {
		lat, sat := m.closedForm(lambda0)
		return lat, sat.class != stable, nil
	}
	if p.ws == nil {
		p.ws = core.AcquireWorkspace()
	}
	m.bind(p.ws, lambda0)
	ok, err := p.ws.Stable(m.opt)
	p.iters += int64(p.ws.Iterations)
	if err != nil || !ok {
		return Latency{}, err == nil, err
	}
	return m.latencyOf(p.ws), false, nil
}

// Done releases the workspace and counts the iterations.
func (p *Predictor) Done() {
	if p.ws != nil {
		fixedPointIters.Add(p.iters)
		p.ws.Release()
		p.ws, p.iters = nil, 0
	}
}

// Graph returns the model's compiled channel-class graph.
func (m *Model) Graph() *core.Graph { return m.net.graph }

// Resolve binds ws to the model's channel graph, writes every class's
// rate at λ₀ and resolves it under the model's options: ws then holds the
// per-class quantities ChannelStats reports, and the blocking factors
// (core.Workspace.Blocking). It returns an error wrapping
// core.ErrUnstable past saturation.
func (m *Model) Resolve(ws *core.Workspace, lambda0 float64) error {
	m.bind(ws, lambda0)
	err := ws.Resolve(m.opt)
	fixedPointIters.Add(int64(ws.Iterations))
	return err
}

// bind binds ws to the graph and the message length and writes the rates
// at λ₀. Resolve and Predict count the sweeps that follow: one for an
// acyclic graph's ordered pass, the iterations of a cyclic one's fixed
// point.
func (m *Model) bind(ws *core.Workspace, lambda0 float64) {
	rates := ws.Bind(m.net.graph, m.msgFlits)
	for i, r := range m.net.perLink {
		rates[i] = lambda0 * r
	}
}

// SaturationLoad finds the paper's maximum-throughput operating point
// (Eq. 26): the smallest per-processor message rate λ₀ where the source
// service time x̄₀₁ reaches 1/λ₀. The result is in flits/cycle/processor,
// the Figure 3 axis.
func (m *Model) SaturationLoad() (float64, error) {
	probes := int64(0)
	pr := m.Predictor() // one workspace for every probe
	defer func() {
		pr.Done()
		satSearches.Add(1)
		satProbes.Add(probes)
	}()
	g := func(lambda0 float64) float64 {
		probes++
		lat, saturated, err := pr.Predict(lambda0)
		if saturated || err != nil {
			return math.Inf(1) // past stability: saturated for sure
		}
		return lambda0*lat.ServiceInj - 1
	}
	var gStable, gUnstable float64 // g at the bracket's ends, which bisection reuses
	stable, unstable, ok := solve.GrowToUnstable(func(l float64) bool {
		v := g(l)
		if v < 0 {
			gStable = v
			return true
		}
		gUnstable = v
		return false
	}, 1e-7, 64)
	if !ok {
		return 0, fmt.Errorf("analytic: no saturation found (network never saturates below rate 2^64*1e-7?)")
	}
	if stable == 0 {
		// Even the smallest probe saturates; report it as the bound.
		return unstable * m.msgFlits, nil
	}
	root, err := solve.BisectBracket(g, stable, unstable, gStable, gUnstable, stable*1e-9, 200)
	if err != nil {
		return 0, fmt.Errorf("analytic: saturation bisection: %w", err)
	}
	return root * m.msgFlits, nil
}

// BuildCoreModel returns the channel-class graph at rate λ₀ as a
// declarative core.Model, each class's rate λ₀·perLink. The model shares
// its transition slices with m and must not modify them.
func (m *Model) BuildCoreModel(lambda0 float64) *core.Model {
	classes := make([]core.Class, len(m.net.classes))
	for i, c := range m.net.classes {
		c.PerLinkRate = lambda0 * m.net.perLink[i]
		classes[i] = c
	}
	return &core.Model{Classes: classes, MsgFlits: m.msgFlits}
}

// ChannelStat is one row of the per-channel-class report.
type ChannelStat struct {
	// Name is the class label, e.g. "up<1,2>".
	Name string
	// Servers is the group size m.
	Servers int
	// Rate is the per-link message rate λ.
	Rate float64
	// Service is the resolved mean service time x̄.
	Service float64
	// Wait is the group mean waiting time W̄.
	Wait float64
	// Rho is the per-server utilization.
	Rho float64
}

// ChannelStats resolves the channel graph and appends per-class service
// times, waits and utilizations — the intermediate quantities of §3.3 —
// to dst, one row per class in class order, and returns the extended
// slice; with room in dst it allocates nothing. It returns dst unchanged
// and an error wrapping core.ErrUnstable past saturation.
func (m *Model) ChannelStats(dst []ChannelStat, lambda0 float64) ([]ChannelStat, error) {
	ws := core.AcquireWorkspace()
	defer ws.Release()
	if err := m.Resolve(ws, lambda0); err != nil {
		return dst, err
	}
	g := m.net.graph
	for i, r := range m.net.perLink {
		id := core.ClassID(i)
		dst = append(dst, ChannelStat{
			Name:    g.Name(id),
			Servers: g.Servers(id),
			Rate:    lambda0 * r,
			Service: ws.ServiceTime[i],
			Wait:    ws.Wait[i],
			Rho:     ws.Utilization[i],
		})
	}
	return dst, nil
}
