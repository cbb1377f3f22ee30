package topology

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// FatTree is the butterfly fat-tree of the paper's §3.1 (Figure 2). With
// N = 4^n processors it has n switch levels; level l (1 <= l <= n) holds
// N/2^(l+1) six-port switches (two parents, four children). Nodes are
// labelled (l, a): level l = distance from the leaves, a = address within
// the level. The wiring follows the paper exactly:
//
//   - processor P(0,a) connects to child (a mod 4) of switch S(1, ⌊a/4⌋);
//   - parent0 of S(l,a) connects to child i of
//     S(l+1, ⌊a/2^(l+1)⌋·2^l + a mod 2^l);
//   - parent1 of S(l,a) connects to child i of
//     S(l+1, ⌊a/2^(l+1)⌋·2^l + (a + 2^(l−1)) mod 2^l);
//   - where i = ⌊(a mod 2^(l+1)) / 2^(l−1)⌋.
//
// Switch S(l,a) is an ancestor of exactly the 4^l processors in block
// ⌊a/2^(l−1)⌋; a worm headed outside that block may take either parent
// (the redundancy the paper models as an M/G/2 channel), while downward
// routes are unique.
//
// Routing is arithmetic on these formulas, and a channel finds its switch
// from its place in the layout. Processor p owns injection channel 2p and
// ejection channel 2p+1, each a group of its own (the tables' stride is
// 2). Switch s below the top level (switches are indexed level by level)
// owns the four channels from 2N+4s: its two up-links, one group, then the
// down-links from its parent0 and parent1, a group each. So injection
// channel 2p leads to level-1 switch p/4, channels 2N+4s+{2,3} lead to s,
// and channels 2N+4s+{0,1} lead to s's parents. A channel's level is read
// from its position, and no per-switch record is kept: the two columns of
// Tables are the whole network.
type FatTree struct {
	n       int // N = 4^n
	numProc int
	name    lazyName

	tab *Tables
}

// NewFatTree builds a butterfly fat-tree with numProc processors, which
// must be a power of four with at least 4 processors.
func NewFatTree(numProc int) (*FatTree, error) {
	n, ok := log4(numProc)
	if !ok || n < 1 {
		return nil, fmt.Errorf("topology: fat-tree size %d is not a power of four >= 4", numProc)
	}
	t := &FatTree{n: n, numProc: numProc}
	numCh := int(t.levelBase(uint(n - 1))) // the top level owns no channels
	kinds := make([]ChannelKind, numCh)
	lead := make([]uint8, numCh)

	// The columns, in the layout above: only a second up-link trails the
	// first channel of its group.
	for p := 0; p < numProc; p++ {
		kinds[2*p], kinds[2*p+1] = KindInjection, KindEjection
	}
	for ch := 2 * numProc; ch < numCh; ch += 4 {
		*(*[4]ChannelKind)(kinds[ch:]) = [4]ChannelKind{KindUp, KindUp, KindDown, KindDown}
		lead[ch+1] = 1
	}

	tab, err := newTables(kinds, lead, 2, numProc)
	if err != nil {
		return nil, err
	}
	t.tab = tab
	return t, nil
}

// MustFatTree is NewFatTree that panics on error, for tests and examples
// with known-good sizes.
func MustFatTree(numProc int) *FatTree {
	t, err := NewFatTree(numProc)
	if err != nil {
		panic(err)
	}
	return t
}

func log4(v int) (int, bool) {
	n := 0
	for x := 1; x < v; x *= 4 {
		n++
		if x > (1<<31)/4 {
			return 0, false
		}
	}
	if intPow4(n) != v {
		return 0, false
	}
	return n, true
}

func intPow4(n int) int { return 1 << (2 * n) }

// Levels are counted from h = l − 1 in what follows: a switch S(l,a) is one
// of 2^h in its processor block, so a>>h is that block. The routing
// arithmetic shifts by h, and h&15 says to the compiler what log4 already
// ensures, that a fat-tree has at most 15 levels; it then shifts without
// guarding against counts of 64 or more. NextGroup runs once per hop of
// every simulated worm.

// levelBase returns the first channel of the switches at level h+1:
// 2N processor channels and 4 per switch below, N/2 − N/2^(h+1) of them.
func (t *FatTree) levelBase(h uint) uint {
	return 4*uint(t.numProc) - 4*uint(t.numProc)>>(h&15+1)
}

// place decodes switch channel ch from the layout: it is channel o&3 of
// switch S(h+1, o>>2), 0 and 1 its up-links, 2 and 3 its down-links from
// parent0 and parent1. 4N − 1 − ch lies in [2N/2^(h+1), 2N/2^h), a number
// of 2n + 1 − h bits, so the level takes one bits.Len.
func (t *FatTree) place(ch ChannelID) (h, o uint) {
	h = uint(2*t.n+1-bits.Len(4*uint(t.numProc)-1-uint(ch))) & 15
	return h, uint(ch) - t.levelBase(h)
}

// parent returns the address of parent i of S(h+1,a), at level h+2
// (§3.1): ⌊a/2^(h+2)⌋·2^(h+1) + (a + i·2^h) mod 2^(h+1).
func parent(h, a, i uint) uint {
	h &= 15
	return a>>(h+2)<<(h+1) + (a+i<<h)&(1<<(h+1)-1)
}

// down returns the group from a switch S(h+2,p), given as u = 4p + j for
// any j < 4 (an offset from place serves), into its child at level h+1
// whose block of 4^(h+1) processors is q: the down-link into child
// c = q·2^h + p mod 2^h from its parent i, where i is bit h of p XOR bit 0
// of q, since c's child port on its parents is q mod 4. Only bit h of p
// and the bits below it matter.
func (t *FatTree) down(h, u, q uint) GroupID {
	h &= 15
	return GroupID(t.levelBase(h) + (q<<(h+2) | u&(4<<h-4)) + 2 + (u>>(h+2)^q)&1)
}

// Levels returns n = log4(N), the number of switch levels.
func (t *FatTree) Levels() int { return t.n }

// Name implements Network.
func (t *FatTree) Name() string { return t.name.get("bft-", t.numProc) }

// NumProcessors implements Network.
func (t *FatTree) NumProcessors() int { return t.numProc }

// NumChannels implements Network.
func (t *FatTree) NumChannels() int { return len(t.tab.Kind) }

// Tables implements Network.
func (t *FatTree) Tables() *Tables { return t.tab }

// NextGroup implements Network. A worm whose head traversed cur sits at the
// switch S(l,a) cur leads to, an ancestor of the 4^l processors in block
// ⌊a/2^(l−1)⌋. It goes down if dst lies in that block (a unique child) and
// otherwise contends for the switch's up-link pair.
func (t *FatTree) NextGroup(cur ChannelID, dst int) GroupID {
	d := uint(dst)
	if uint(cur) < 2*uint(t.numProc) { // processor channel 2p; injection leads to S(1, p/4)
		a := uint(cur) >> 3
		switch {
		case cur&1 != 0 || d>>2 != a && t.n == 1:
			return t.noRoute(cur, dst)
		case d>>2 == a:
			return GroupID(2*d + 1) // processor dst's ejection channel
		}
		return GroupID(t.levelBase(0) + 4*a)
	}
	h, o := t.place(cur)
	if o&2 != 0 {
		// A down-link leads to its owner S(h+1, o>>2), whose up-link pair
		// is cur &^ 3.
		switch {
		case d>>(2*h+2) != o>>(h+2):
			return GroupID(uint(cur) &^ 3)
		case h == 0:
			return GroupID(2*d + 1)
		}
		return t.down(h-1, o, d>>(2*h))
	}
	// An up-link leads to its owner's parent o&1, S(h+2, p).
	p := parent(h, o>>2, o&1)
	if d>>(2*h+4) == p>>(h+1) {
		return t.down(h, 4*p, d>>(2*h+2))
	}
	if int(h)+2 == t.n {
		return t.noRoute(cur, dst)
	}
	return GroupID(t.levelBase(h+1) + 4*p)
}

// noRoute panics for a worm NextGroup cannot route: one on an ejection
// channel, or one at a root switch headed outside the machine. It never
// returns; NextGroup returns its result so that no value is live across
// the call.
func (t *FatTree) noRoute(cur ChannelID, dst int) GroupID {
	l, a, ok := t.SwitchOf(cur)
	if !ok {
		panic("topology: NextGroup called on an ejection channel")
	}
	panic(fmt.Sprintf("topology: no up-links at root switch S(%d,%d) for dst %d", l, a, dst))
}

// PathLen implements Network: a message whose lowest common subtree with
// its destination is at level l traverses 2l channels (injection, l−1 up,
// l−1 down, ejection).
func (t *FatTree) PathLen(src, dst int) int {
	if src == dst {
		return 0
	}
	for l := 1; l <= t.n; l++ {
		if src>>(2*l) == dst>>(2*l) {
			return 2 * l
		}
	}
	panic("topology: unreachable destination")
}

// AvgDistance implements Network: D̄ = Σ_{l=1..n} 2l·3·4^(l−1)/(4^n − 1),
// since 3·4^(l−1) of a processor's 4^n − 1 possible destinations have
// their lowest common subtree at level l.
func (t *FatTree) AvgDistance() float64 {
	num := 0.0
	for l := 1; l <= t.n; l++ {
		num += float64(2*l) * 3 * math.Pow(4, float64(l-1))
	}
	return num / float64(t.numProc-1)
}

// SwitchOf returns the (level, addr) pair of the switch a channel leads
// to, with ok=false for ejection channels, decoding the channel as
// NextGroup does.
func (t *FatTree) SwitchOf(ch ChannelID) (level, addr int, ok bool) {
	switch {
	case uint(ch) < 2*uint(t.numProc) && ch&1 != 0:
		return 0, 0, false // ejection channel 2p+1 leads to processor p
	case uint(ch) < 2*uint(t.numProc):
		return 1, int(ch) >> 3, true // injection channel 2p leads to S(1, p/4)
	}
	h, o := t.place(ch)
	if o&2 != 0 {
		return int(h) + 1, int(o >> 2), true
	}
	return int(h) + 2, int(parent(h, o>>2, o&1)), true
}

// Describe dumps the switch wiring in a human-readable form, reproducing
// the structure of the paper's Figure 2 textually.
func (t *FatTree) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "butterfly fat-tree: N=%d processors, n=%d switch levels, %d channels, %d arbitration groups\n",
		t.numProc, t.n, t.NumChannels(), bytes.Count(t.tab.Lead, []byte{0}))
	for l := 1; l <= t.n; l++ {
		fmt.Fprintf(&b, "level %d: %d switches\n", l, t.numProc/(2<<l))
	}
	for h := uint(0); h < uint(t.n); h++ {
		for a := uint(0); a < uint(t.numProc)>>(h+2); a++ {
			fmt.Fprintf(&b, "S(%d,%d):", h+1, a)
			for sub := uint(0); sub < 4; sub++ {
				g := GroupID(2*(4*a+sub) + 1)
				if h > 0 {
					g = t.down(h-1, 4*a, a>>h<<2|sub)
				}
				if cl, ca, ok := t.SwitchOf(g); ok {
					fmt.Fprintf(&b, " child%d->S(%d,%d)", sub, cl, ca)
				} else {
					fmt.Fprintf(&b, " child%d->P(%d)", sub, g/t.tab.Stride)
				}
			}
			for i := uint(0); int(h)+1 < t.n && i < 2; i++ {
				fmt.Fprintf(&b, " parent%d->S(%d,%d)", i, h+2, parent(h, a, i))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
