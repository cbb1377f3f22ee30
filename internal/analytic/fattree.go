package analytic

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/queueing"
	"repro/internal/topology"
)

// FatTreeModel is the paper's analytical model of the butterfly fat-tree
// (§3). It embeds the Model every network shares, whose network carries
// the fat-tree's own facts: the routing probabilities, the rates per
// level, the class layout and the tables of the closed-form recurrences
// Eq. 12–25, which answer Latency for the paper variant (zero Options);
// an ablation variant answers from the equivalent channel-class graph
// through package core. Both paths are cross-checked in tests.
//
// The constructor builds everything that does not depend on λ₀, the
// message length or the variant (see the package comment) once; a model
// is immutable and safe for concurrent use.
type FatTreeModel struct {
	Model
	own network // the network Model.net points at
}

// maxLevels bounds n = log4(N) so the closed form can keep its per-level
// tables in fixed-size stack arrays: 4^31 is the largest power of four an
// int holds.
const maxLevels = 31

// NewFatTreeModel creates a model for a butterfly fat-tree with numProc
// processors (a power of four ≥ 4) and fixed messages of msgFlits flits.
func NewFatTreeModel(numProc int, msgFlits float64, opt core.Options) (*FatTreeModel, error) {
	n := 0
	for v := 1; v < numProc; v *= 4 {
		n++
	}
	if numProc < 4 || n > maxLevels || 1<<(2*n) != numProc {
		return nil, fmt.Errorf("analytic: fat-tree size %d is not a power of four >= 4", numProc)
	}
	if err := checkMsgFlits(msgFlits); err != nil {
		return nil, err
	}
	m := &FatTreeModel{}
	net := &m.own
	net.family, net.numProc, net.n = familyFatTree, numProc, n
	net.upProb = make([]float64, n+1)
	for l := range net.upProb {
		net.upProb[l] = (float64(numProc) - math.Pow(4, float64(l))) / (float64(numProc) - 1)
	}
	var avgDist float64
	for l := 1; l <= n; l++ {
		avgDist += float64(2*l) * 3 * math.Pow(4, float64(l-1))
	}
	avgDist /= float64(numProc - 1)
	classes, perLink := net.fatTreeChannels()
	if err := net.init(avgDist, classes, upID(n, 0), perLink); err != nil {
		return nil, err
	}
	m.Model = net.view(msgFlits, opt)
	return m, nil
}

// MustFatTreeModel is NewFatTreeModel that panics on error.
func MustFatTreeModel(numProc int, msgFlits float64, opt core.Options) *FatTreeModel {
	m, err := NewFatTreeModel(numProc, msgFlits, opt)
	if err != nil {
		panic(err)
	}
	return m
}

// NumProcessors returns the configured machine size.
func (m *FatTreeModel) NumProcessors() int { return m.net.numProc }

// Levels returns n = log4(N).
func (m *FatTreeModel) Levels() int { return m.net.n }

// upRate returns λ_{l,l+1}, the per-link message rate of an up channel
// from level l < n (Eq. 14), with λ_{0,1} = λ₀. Down rates mirror up
// rates (Eq. 15): λ_{l+1,l} = λ_{l,l+1}.
func (net *network) upRate(l int, lambda0 float64) float64 {
	if l == 0 {
		return lambda0
	}
	return lambda0 * net.upProb[l] * float64(int(1)<<l)
}

// ratio computes λa/λb for the blocking corrections; with no traffic at
// all (λb = 0) the associated wait is 0, so any finite value works and 0
// keeps the block factor at its no-information value of 1.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// closedForm transcribes Eq. 12–25 with the published 2λ correction to
// Eq. 21/23 on a fat-tree's network. Its per-level tables are fixed-size
// arrays on the stack, and past saturation it returns the saturated class
// and its ρ as a value, so no point allocates: Latency builds the error
// only when it returns one.
func (m *Model) closedForm(lambda0 float64) (Latency, saturation) {
	net := m.net
	n, s := net.n, m.msgFlits

	var lamUp [maxLevels]float64 // lamUp[l] = λ_{l,l+1}
	for l := 0; l < n; l++ {
		lamUp[l] = net.upRate(l, lambda0)
	}
	lamDown := func(l int) float64 { return lamUp[l-1] } // λ_{l,l-1} = λ_{l-1,l}

	// Downward channels, leaves up (Eq. 16–19).
	var xDown, wDown [maxLevels + 1]float64 // xDown[l] = x̄_{l,l-1}, 1 <= l <= n
	xDown[1] = s                            // Eq. 16: deterministic delivery at the destination
	for l := 1; l <= n; l++ {
		if l > 1 {
			block := clamp01(1 - ratio(lamDown(l), lamDown(l-1))/4) // Eq. 18
			xDown[l] = xDown[l-1] + block*wDown[l-1]
		}
		wDown[l] = queueing.WaitWormholeMG1(lamDown(l), xDown[l], s) // Eq. 19
		if math.IsInf(wDown[l], 1) {
			return Latency{}, saturation{downID(l), queueing.Utilization(1, lamDown(l), xDown[l])}
		}
	}

	// Upward channels, root down (Eq. 20–24).
	var xUp, wUp [maxLevels]float64
	for l := n - 1; l >= 0; l-- {
		if l == n-1 {
			// Channel <n-1, n> into the root switches.
			block := clamp01(1 - ratio(lamUp[l], lamDown(n))/3) // Eq. 20: 3 sibling children
			xUp[l] = xDown[n] + block*wDown[n]
		} else {
			// Channel <l, l+1> arrives at a level-(l+1) switch (Eq. 22).
			pUp := net.upProb[l+1]
			pDown := 1 - pUp
			blockUp := clamp01(1 - ratio(lamUp[l], lamUp[l+1])*pUp)
			blockDown := clamp01(1 - ratio(lamUp[l], lamDown(l+1))*pDown/3)
			xUp[l] = pUp*(xUp[l+1]+blockUp*wUp[l+1]) +
				pDown*(xDown[l+1]+blockDown*wDown[l+1])
		}
		var sat saturation
		if wUp[l], sat = m.upWait(l, lamUp[l], xUp[l]); sat.class != stable {
			return Latency{}, sat
		}
	}

	return Latency{
		Total:      wUp[0] + xUp[0] + net.avgDist - 1, // Eq. 25
		WaitInj:    wUp[0],
		ServiceInj: xUp[0],
		AvgDist:    net.avgDist,
	}, saturation{class: stable}
}

// upWait applies Eq. 21/23/24: the injection channel (l = 0) is a single
// server; every other up channel is half of a two-server pair fed the
// combined rate 2λ (published correction).
func (m *Model) upWait(l int, lam, x float64) (float64, saturation) {
	var w float64
	servers := 2
	if l == 0 {
		servers = 1
		w = queueing.WaitWormholeMG1(lam, x, m.msgFlits) // Eq. 24
	} else {
		w = queueing.WaitWormholeMGm(2, 2*lam, x, m.msgFlits) // Eq. 21/23
	}
	if math.IsInf(w, 1) {
		return 0, saturation{upID(m.net.n, l), queueing.Utilization(servers, float64(servers)*lam, x)}
	}
	return w, saturation{class: stable}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Class layout of the channel graph of an n-level fat tree: down<l,l-1>
// for l = 1..n, then up<l,l+1> for l = 0..n-1 (up<0,1> is the injection
// channel).
func downID(l int) core.ClassID  { return core.ClassID(l - 1) } // l = 1..n
func upID(n, l int) core.ClassID { return core.ClassID(n + l) } // l = 0..n-1

// fatTreeChannels generates the equivalent channel-class graph for
// package core (the layout above) and each class's per-link rate at
// λ₀ = 1: Eq. 14 for an up channel, mirrored down by Eq. 15,
// λ_{l+1,l} = λ_{l,l+1}. Every class name is a slice of one string and
// every transition list a slice of one slab, so the graph costs the same
// few allocations at any size.
func (net *network) fatTreeChannels() ([]core.Class, []float64) {
	n := net.n
	classes := make([]core.Class, 2*n)
	perLink := make([]float64, 2*n)
	// n-1 down classes with one transition, up<n-1,n> with one, n-1 up
	// classes with two.
	out := make([]core.Transition, 0, 3*n-2)
	var names strings.Builder
	names.Grow(2 * n * len("down<31,30>"))
	for l := 1; l <= n; l++ {
		c := core.Class{
			Name:    className(&names, "down<", ">", l, l-1),
			Servers: 1,
		}
		if l == 1 {
			c.Terminal = true // ejection channel, Eq. 16
		} else {
			// One of the 4 children of the level-(l-1) switch.
			start := len(out)
			out = append(out, core.Transition{To: downID(l - 1), Prob: 1, Groups: 4})
			c.Out = out[start:len(out):len(out)]
		}
		classes[downID(l)] = c
		perLink[downID(l)] = net.upRate(l-1, 1)
	}
	for l := 0; l < n; l++ {
		c := core.Class{
			Name:    className(&names, "up<", ">", l, l+1),
			Servers: 2,
		}
		if l == 0 {
			c.Servers = 1 // injection channel has no redundant twin
		}
		start := len(out)
		if l == n-1 {
			// Arrives at a root switch: down to one of 3 siblings.
			out = append(out, core.Transition{To: downID(n), Prob: 1, Groups: 3})
		} else {
			pUp := net.upProb[l+1]
			out = append(out,
				core.Transition{To: upID(n, l+1), Prob: pUp, Groups: 1},
				core.Transition{To: downID(l + 1), Prob: 1 - pUp, Groups: 3},
			)
		}
		c.Out = out[start:len(out):len(out)]
		classes[upID(n, l)] = c
		perLink[upID(n, l)] = net.upRate(l, 1)
	}
	return classes, perLink
}

// FatTreeRoute returns the class of hop h, h = 0..2n-1, of the longest
// route in an n-level fat tree, injection to ejection: up<h,h+1> while
// h < n, then down<2n-h,2n-h-1>. It indexes ChannelStats' rows.
func FatTreeRoute(n, h int) core.ClassID {
	if h < n {
		return upID(n, h)
	}
	return downID(2*n - h)
}

// FatTreeClassOf maps a physical channel to its analytical class name
// ("up<l,l+1>" / "down<l,l-1>"), the key that joins simulator
// measurements to model quantities such as ChannelStats' rows.
func FatTreeClassOf(ft *topology.FatTree, ch topology.ChannelID) string {
	switch ft.Tables().Kind[ch] {
	case topology.KindInjection:
		return "up<0,1>"
	case topology.KindEjection:
		return "down<1,0>"
	case topology.KindUp:
		l, _, _ := ft.SwitchOf(ch)
		return fmt.Sprintf("up<%d,%d>", l-1, l)
	case topology.KindDown:
		l, _, _ := ft.SwitchOf(ch)
		return fmt.Sprintf("down<%d,%d>", l+1, l)
	default:
		return "?"
	}
}
