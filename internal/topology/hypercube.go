package topology

import (
	"fmt"
	"math"
	"math/bits"
)

// Hypercube is a binary n-cube with one processor per router node and
// dimension-order (e-cube) routing: a worm corrects address bits from the
// lowest dimension to the highest, which is deadlock-free without virtual
// channels. It serves as the "other networks" target for the paper's
// general model (§2, §4) and matches the network studied by Draper & Ghosh.
//
// Channels: one injection and one ejection channel per node, plus one
// directed link per node per dimension. Every arbitration group is a
// single channel (the hypercube has no redundant outgoing links, so the
// multi-server machinery degenerates to M/G/1 as the paper notes for
// deterministic routing).
//
// Node v owns the dims+2 consecutive channels starting at v·(dims+2) (the
// tables' stride): its injection channel, its ejection channel, then its
// link along each dimension in turn. Group g is channel g. Routing is
// therefore arithmetic on the channel ID.
type Hypercube struct {
	dims    int
	numProc int
	name    lazyName

	tab *Tables
}

// Slots of a node's channel block; slotLink+d is the link along dimension d.
const (
	slotInj = iota
	slotEj
	slotLink
)

// NewHypercube builds a binary hypercube with 2^dims processors,
// 1 <= dims <= 20.
func NewHypercube(dims int) (*Hypercube, error) {
	if dims < 1 || dims > 20 {
		return nil, fmt.Errorf("topology: hypercube dims %d out of range [1,20]", dims)
	}
	t := &Hypercube{dims: dims, numProc: 1 << dims}
	nCh := t.NumChannels()
	kinds := make([]ChannelKind, nCh)
	for ch := range kinds {
		kinds[ch] = KindLink
	}
	for v := 0; v < t.numProc; v++ {
		kinds[t.channel(v, slotInj)], kinds[t.channel(v, slotEj)] = KindInjection, KindEjection
	}
	tab, err := newTables(kinds, make([]uint8, nCh), int32(dims+slotLink), t.numProc)
	if err != nil {
		return nil, err
	}
	t.tab = tab
	return t, nil
}

// MustHypercube is NewHypercube that panics on error.
func MustHypercube(dims int) *Hypercube {
	t, err := NewHypercube(dims)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Network.
func (t *Hypercube) Name() string { return t.name.get("hcube-", t.numProc) }

// NumProcessors implements Network.
func (t *Hypercube) NumProcessors() int { return t.numProc }

// NumChannels implements Network.
func (t *Hypercube) NumChannels() int { return t.numProc * (t.dims + slotLink) }

// Tables implements Network.
func (t *Hypercube) Tables() *Tables { return t.tab }

// split returns the node that owns ch and ch's slot in that node's block.
func (t *Hypercube) split(ch ChannelID) (node, slot int) {
	stride := t.dims + slotLink
	return int(ch) / stride, int(ch) % stride
}

func (t *Hypercube) channel(node, slot int) ChannelID {
	return ChannelID(node*(t.dims+slotLink) + slot)
}

// NextGroup implements Network with e-cube routing: correct the lowest
// differing address bit, or eject when none remain.
func (t *Hypercube) NextGroup(cur ChannelID, dst int) GroupID {
	v, slot := t.split(cur)
	switch slot {
	case slotInj:
	case slotEj:
		panic("topology: NextGroup called on an ejection channel")
	default:
		v ^= 1 << (slot - slotLink) // the node the link leads to
	}
	diff := v ^ dst
	if diff == 0 {
		return t.channel(v, slotEj)
	}
	return t.channel(v, slotLink+bits.TrailingZeros(uint(diff)))
}

// PathLen implements Network: Hamming distance plus the injection and
// ejection channels.
func (t *Hypercube) PathLen(src, dst int) int {
	if src == dst {
		return 0
	}
	return bits.OnesCount(uint(src^dst)) + 2
}

// AvgDistance implements Network: E[Hamming | src != dst] + 2
// = n·2^(n−1)/(2^n − 1) + 2.
func (t *Hypercube) AvgDistance() float64 {
	n := float64(t.dims)
	return n*math.Exp2(n-1)/(float64(t.numProc)-1) + 2
}
