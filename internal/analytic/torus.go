package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// TorusModel applies the general model (§2) to a unidirectional k-ary
// n-cube with dimension-order routing and uniform traffic — the network
// family of Dally's classic analysis and, at k = 2, the binary hypercube
// of Draper & Ghosh. It demonstrates the paper's closing claim that the
// framework extends beyond the fat-tree.
//
// Channel classes: one injection class, one ejection class, and one class
// per dimension d (a physical link per node per dimension). For k > 2 the
// dimension-d class feeds itself (a worm may take several hops in the same
// dimension), which makes the channel graph cyclic and exercises the
// fixed-point path of the solver; at k = 2 there is no self-loop, the
// graph is acyclic and resolves in one ordered pass, and the model reduces
// exactly to the hypercube case.
//
// Transition probabilities treat per-dimension hop counts as independent
// uniform draws on {0..k−1}; rates use the exact flow-conservation value
// E[hops per dim | dst ≠ src] = N(k−1) / (2(N−1)).
type TorusModel struct {
	k, dims  int
	numProc  int
	msgFlits float64
	opt      core.Options

	name  string
	graph *core.Graph
}

// NewTorusModel creates a model of a k-ary n-cube (k ≥ 2, dims ≥ 1) with
// fixed messages of msgFlits flits. Sizes above 2^30 nodes are rejected.
func NewTorusModel(k, dims int, msgFlits float64, opt core.Options) (*TorusModel, error) {
	if k < 2 || dims < 1 {
		return nil, fmt.Errorf("analytic: torus k=%d dims=%d out of range", k, dims)
	}
	numProc := 1
	for i := 0; i < dims; i++ {
		if numProc > (1<<30)/k {
			return nil, fmt.Errorf("analytic: torus %d-ary %d-cube too large", k, dims)
		}
		numProc *= k
	}
	if msgFlits <= 0 {
		return nil, fmt.Errorf("analytic: message length %v must be positive", msgFlits)
	}
	m := &TorusModel{k: k, dims: dims, numProc: numProc, msgFlits: msgFlits, opt: opt,
		name: fmt.Sprintf("torus-%dary%dcube/s=%g", k, dims, msgFlits)}
	var err error
	if m.graph, err = core.Compile(m.BuildCoreModel(0)); err != nil {
		return nil, err
	}
	return m, nil
}

// MustTorusModel is NewTorusModel that panics on error.
func MustTorusModel(k, dims int, msgFlits float64, opt core.Options) *TorusModel {
	m, err := NewTorusModel(k, dims, msgFlits, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements NetworkModel.
func (m *TorusModel) Name() string { return m.name }

// MsgFlits implements NetworkModel.
func (m *TorusModel) MsgFlits() float64 { return m.msgFlits }

// NumProcessors returns k^dims.
func (m *TorusModel) NumProcessors() int { return m.numProc }

// AvgDist implements NetworkModel: dims·E[hops per dim | dst≠src] plus the
// injection and ejection channels.
func (m *TorusModel) AvgDist() float64 {
	return float64(m.dims)*m.hopsPerDim() + 2
}

// hopsPerDim is E[hops in one dimension | dst != src]
// = N(k−1)/(2(N−1)).
func (m *TorusModel) hopsPerDim() float64 {
	n := float64(m.numProc)
	return n * float64(m.k-1) / (2 * (n - 1))
}

// Class layout of the channel graph: [ej, link0..link_{dims-1}, inj].
func (m *TorusModel) injID() core.ClassID { return core.ClassID(1 + m.dims) }

// setRates writes the per-link rates of every class at λ₀: every node
// injects and ejects λ₀, and every dimension link carries the
// flow-conservation rate.
func (m *TorusModel) setRates(rates []float64, lambda0 float64) {
	link := lambda0 * m.hopsPerDim()
	for i := range rates {
		rates[i] = link
	}
	rates[0], rates[m.injID()] = lambda0, lambda0
}

// BuildCoreModel generates the channel-class graph at per-processor rate
// lambda0 as a declarative core.Model (class layout above). The
// constructor compiles BuildCoreModel(0) once; evaluations write setRates'
// rates into that graph instead.
func (m *TorusModel) BuildCoreModel(lambda0 float64) *core.Model {
	dims := m.dims
	k := float64(m.k)
	ejID := core.ClassID(0)
	linkID := func(d int) core.ClassID { return core.ClassID(1 + d) }

	classes := make([]core.Class, dims+2)
	classes[ejID] = core.Class{
		Name:     "eject",
		Servers:  1,
		Terminal: true,
	}

	// P(cross dim e as the next dimension | leaving dim d) spreads the
	// residual probability geometrically over higher dimensions.
	for d := 0; d < dims; d++ {
		var out []core.Transition
		leave := 2 / k // P(this was the last hop in dim d)
		if m.k == 2 {
			leave = 1
		} else {
			out = append(out, core.Transition{To: linkID(d), Prob: 1 - 2/k, Groups: 1})
		}
		rest := leave
		for e := d + 1; e < dims; e++ {
			p := leave * math.Pow(1/k, float64(e-d-1)) * ((k - 1) / k)
			out = append(out, core.Transition{To: linkID(e), Prob: p, Groups: 1})
			rest -= p
		}
		// Whatever remains ejects; computing it by subtraction keeps the
		// probabilities summing to exactly 1 in floating point.
		out = append(out, core.Transition{To: ejID, Prob: rest, Groups: 1})
		classes[linkID(d)] = core.Class{
			Name:    fmt.Sprintf("dim%d", d),
			Servers: 1,
			Out:     out,
		}
	}

	// Injection: first corrected dimension is the lowest with a nonzero
	// hop count; normalised over dst != src.
	var out []core.Transition
	norm := 1 - math.Pow(1/k, float64(dims))
	rest := 1.0
	for d := 0; d < dims-1; d++ {
		p := math.Pow(1/k, float64(d)) * ((k - 1) / k) / norm
		out = append(out, core.Transition{To: linkID(d), Prob: p, Groups: 1})
		rest -= p
	}
	out = append(out, core.Transition{To: linkID(dims - 1), Prob: rest, Groups: 1})
	classes[m.injID()] = core.Class{
		Name:    "inject",
		Servers: 1,
		Out:     out,
	}
	return withRates(&core.Model{Classes: classes, MsgFlits: m.msgFlits}, m.setRates, lambda0)
}

// Latency implements NetworkModel.
func (m *TorusModel) Latency(lambda0 float64) (Latency, error) {
	if lambda0 < 0 || math.IsNaN(lambda0) {
		return Latency{}, fmt.Errorf("analytic: bad arrival rate %v", lambda0)
	}
	ws := core.AcquireWorkspace()
	defer ws.Release()
	m.setRates(ws.Bind(m.graph), lambda0)
	return injLatency(ws, m.opt, m.injID(), m.AvgDist())
}

// ServiceInj returns x̄ at the injection channel for the saturation search.
func (m *TorusModel) ServiceInj(lambda0 float64) (float64, error) {
	lat, err := m.Latency(lambda0)
	if err != nil {
		return 0, err
	}
	return lat.ServiceInj, nil
}

// SaturationLoad returns the maximum sustainable load in
// flits/cycle/processor (Eq. 26 applied to the torus instance).
func (m *TorusModel) SaturationLoad() (float64, error) {
	lambda0, err := SaturationLoad(m.ServiceInj)
	if err != nil {
		return 0, err
	}
	return lambda0 * m.msgFlits, nil
}

// HypercubeModel is the binary-hypercube special case (k = 2) of
// TorusModel, matching the network simulated by internal/sim and studied
// by Draper & Ghosh.
type HypercubeModel struct {
	TorusModel
}

// NewHypercubeModel creates a hypercube model with 2^dims processors.
func NewHypercubeModel(dims int, msgFlits float64, opt core.Options) (*HypercubeModel, error) {
	t, err := NewTorusModel(2, dims, msgFlits, opt)
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("hcube-%d/s=%g", t.numProc, msgFlits)
	return &HypercubeModel{TorusModel: *t}, nil
}

// MustHypercubeModel is NewHypercubeModel that panics on error.
func MustHypercubeModel(dims int, msgFlits float64, opt core.Options) *HypercubeModel {
	m, err := NewHypercubeModel(dims, msgFlits, opt)
	if err != nil {
		panic(err)
	}
	return m
}
