package analytic

import (
	"fmt"
	"math"
	"strings"

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
//
// TorusModel embeds the Model every network shares; at k = 2 it also
// carries the hypercube's closed form (ClosedForm).
type TorusModel struct {
	Model
	own network // the network Model.net points at
}

// NewTorusModel creates a model of a k-ary n-cube (k ≥ 2, dims ≥ 1) with
// fixed messages of msgFlits flits. Sizes above 2^30 nodes are rejected.
func NewTorusModel(k, dims int, msgFlits float64, opt core.Options) (*TorusModel, error) {
	return newTorusModel(k, dims, msgFlits, opt, false)
}

// NewHypercubeModel creates the binary-hypercube special case (k = 2) with
// 2^dims processors, matching the network simulated by internal/sim and
// studied by Draper & Ghosh; it is named "hcube-N/s=…".
func NewHypercubeModel(dims int, msgFlits float64, opt core.Options) (*TorusModel, error) {
	return newTorusModel(2, dims, msgFlits, opt, true)
}

func newTorusModel(k, dims int, msgFlits float64, opt core.Options, hypercube bool) (*TorusModel, error) {
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
	if err := checkMsgFlits(msgFlits); err != nil {
		return nil, err
	}
	m := &TorusModel{}
	net := &m.own
	net.family, net.k, net.dims, net.numProc = familyTorus, k, dims, numProc
	if hypercube {
		net.family = familyHypercube
	}
	// D̄: dims·E[hops per dim | dst≠src] plus the injection and ejection
	// channels.
	avgDist := float64(dims)*net.hopsPerDim() + 2
	classes, perLink := net.torusChannels()
	if err := net.init(avgDist, classes, net.injID(), perLink); err != nil {
		return nil, err
	}
	m.Model = net.view(msgFlits, opt)
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

// MustHypercubeModel is NewHypercubeModel that panics on error.
func MustHypercubeModel(dims int, msgFlits float64, opt core.Options) *TorusModel {
	m, err := NewHypercubeModel(dims, msgFlits, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// hopsPerDim is E[hops in one dimension | dst != src]
// = N(k−1)/(2(N−1)).
func (net *network) hopsPerDim() float64 {
	n := float64(net.numProc)
	return n * float64(net.k-1) / (2 * (n - 1))
}

// Class layout of the channel graph: [ej, link0..link_{dims-1}, inj].
func (net *network) injID() core.ClassID { return core.ClassID(1 + net.dims) }

// torusChannels generates the channel-class graph as core classes (layout
// above) and each class's per-link rate at λ₀ = 1: every node injects and
// ejects λ₀, and every dimension link carries the flow-conservation rate
// λ₀·E[hops per dim]. As for the fat-tree, the names share one string and
// the transition lists one slab.
func (net *network) torusChannels() ([]core.Class, []float64) {
	dims := net.dims
	k := float64(net.k)
	ejID := core.ClassID(0)
	linkID := func(d int) core.ClassID { return core.ClassID(1 + d) }

	classes := make([]core.Class, dims+2)
	perLink := make([]float64, dims+2)
	// Dimension d moves to each higher dimension or ejects, and for k > 2
	// may stay; injection enters one of the dims dimensions.
	transitions := dims*(dims+1)/2 + dims
	if net.k > 2 {
		transitions += dims
	}
	out := make([]core.Transition, 0, transitions)
	var names strings.Builder
	names.Grow(dims * len("dim1000000000"))
	classes[ejID] = core.Class{
		Name:     "eject",
		Servers:  1,
		Terminal: true,
	}
	perLink[ejID] = 1

	// P(cross dim e as the next dimension | leaving dim d) spreads the
	// residual probability geometrically over higher dimensions.
	for d := 0; d < dims; d++ {
		start := len(out)
		leave := 2 / k // P(this was the last hop in dim d)
		if net.k == 2 {
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
			Name:    className(&names, "dim", "", d),
			Servers: 1,
			Out:     out[start:len(out):len(out)],
		}
		perLink[linkID(d)] = net.hopsPerDim()
	}

	// Injection: first corrected dimension is the lowest with a nonzero
	// hop count; normalised over dst != src.
	start := len(out)
	norm := 1 - math.Pow(1/k, float64(dims))
	rest := 1.0
	for d := 0; d < dims-1; d++ {
		p := math.Pow(1/k, float64(d)) * ((k - 1) / k) / norm
		out = append(out, core.Transition{To: linkID(d), Prob: p, Groups: 1})
		rest -= p
	}
	out = append(out, core.Transition{To: linkID(dims - 1), Prob: rest, Groups: 1})
	classes[net.injID()] = core.Class{
		Name:    "inject",
		Servers: 1,
		Out:     out[start:len(out):len(out)],
	}
	perLink[net.injID()] = 1
	return classes, perLink
}
