package topology

import (
	"bytes"
	"fmt"
	"math"
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
// Routing is per switch, and a channel finds its switch from its place in
// the layout. Processor p owns injection channel 2p and ejection channel
// 2p+1, each a group of its own (the tables' stride is 2). Switch s below
// the top level (switches are indexed level by level) owns the four
// channels from 2N+4s: its two up-links, one group, then the down-links
// from its parent0 and parent1, a group each. So injection channel 2p
// leads to level-1 switch p/4, channels 2N+4s+{2,3} lead to s, and
// channels 2N+4s+{0,1} lead to s's parents.
type FatTree struct {
	n       int // N = 4^n
	numProc int
	name    lazyName

	sw      []route    // the routing record of every switch (switchIndex)
	parents [][2]int32 // the two parents of every switch below the top

	tab *Tables
}

// route is what NextGroup reads at one switch: the switch covers
// processor block blk at granularity 2^shift (shift = 2·level), reaches
// sub-block i through group down[i] and its parents through up (None at
// the top level), each group named by its first channel.
type route struct {
	shift int32
	blk   int32
	up    GroupID
	down  [4]GroupID
}

// NewFatTree builds a butterfly fat-tree with numProc processors, which
// must be a power of four with at least 4 processors.
func NewFatTree(numProc int) (*FatTree, error) {
	n, ok := log4(numProc)
	if !ok || n < 1 {
		return nil, fmt.Errorf("topology: fat-tree size %d is not a power of four >= 4", numProc)
	}
	t := &FatTree{n: n, numProc: numProc}
	below := t.switchIndex(n, 0) // switches below the top level
	numCh := 2*numProc + 4*below
	t.sw = make([]route, t.switchIndex(n+1, 0))
	t.parents = make([][2]int32, below)
	kinds := make([]ChannelKind, numCh)
	lead := make([]uint8, numCh)

	// The columns, in the layout above: only a second up-link trails the
	// first channel of its group.
	for p := 0; p < numProc; p++ {
		kinds[2*p], kinds[2*p+1] = KindInjection, KindEjection
	}
	for s := 0; s < below; s++ {
		ch := 2*numProc + 4*s
		*(*[4]ChannelKind)(kinds[ch:]) = [4]ChannelKind{KindUp, KindUp, KindDown, KindDown}
		lead[ch+1] = 1
	}

	for l := 1; l <= n; l++ {
		for a := 0; a < t.switchesAtLevel(l); a++ {
			s := t.switchIndex(l, a)
			r := &t.sw[s]
			r.shift, r.blk, r.up = int32(2*l), int32(a>>(l-1)), None
			r.down = [4]GroupID{None, None, None, None}
			if l < n {
				r.up = GroupID(2*numProc + 4*s)
			}
			if l == 1 {
				for sub := range r.down {
					r.down[sub] = GroupID(2*(4*a+sub) + 1)
				}
			}
		}
	}

	// Switch-to-switch wiring for levels 1..n-1, as §3.1 states it. The
	// child port a switch takes on both parents is its sub-block index
	// ⌊(a mod 2^(l+1))/2^(l−1)⌋, which is what the router relies on.
	for l := 1; l < n; l++ {
		stride := 1 << (l - 1) // 2^(l-1)
		for a := 0; a < t.switchesAtLevel(l); a++ {
			s := t.switchIndex(l, a)
			base := a / (2 << l) * (1 << l) // ⌊a/2^(l+1)⌋·2^l
			childPort := a % (2 << l) / stride
			for i, pa := range [2]int{base + a%(1<<l), base + (a+stride)%(1<<l)} {
				ps := t.switchIndex(l+1, pa)
				t.parents[s][i] = int32(ps)
				down := &t.sw[ps].down[childPort]
				if *down != None {
					return nil, fmt.Errorf("topology: duplicate child port %d on S(%d,%d)",
						childPort, l+1, pa)
				}
				*down = GroupID(2*numProc + 4*s + 2 + i)
			}
		}
	}
	for s, r := range t.sw {
		for sub, g := range r.down {
			if g == None {
				l, a := t.switchAt(s)
				return nil, fmt.Errorf("topology: unwired child port %d on S(%d,%d)", sub, l, a)
			}
		}
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

func (t *FatTree) switchesAtLevel(l int) int { return t.numProc / (2 << l) } // N/2^(l+1)

// switchIndex numbers S(l,a) level by level: N/2 − N/2^l switches lie
// below level l. switchIndex(n+1, 0) is the number of switches.
func (t *FatTree) switchIndex(l, a int) int { return t.numProc/2 - t.numProc>>l + a }

// switchAt is switchIndex's inverse.
func (t *FatTree) switchAt(s int) (level, addr int) {
	level = int(t.sw[s].shift) / 2
	return level, s - t.switchIndex(level, 0)
}

// switchOf returns the index of the switch channel ch leads to, or -1 for
// an ejection channel, from the channel layout NewFatTree lays down.
func (t *FatTree) switchOf(ch ChannelID) int {
	c := int(ch) - 2*t.numProc
	switch {
	case c < 0 && ch&1 == 0:
		return int(ch) >> 3 // injection channel 2p: S(1, p/4)
	case c < 0:
		return -1
	case c&2 != 0:
		return c >> 2
	default:
		return int(t.parents[c>>2][c&1])
	}
}

// Levels returns n = log4(N), the number of switch levels.
func (t *FatTree) Levels() int { return t.n }

// SwitchesAtLevel returns the number of switches at level l (1 <= l <= n).
func (t *FatTree) SwitchesAtLevel(l int) int { return t.switchesAtLevel(l) }

// Name implements Network.
func (t *FatTree) Name() string { return t.name.get("bft-", t.numProc) }

// NumProcessors implements Network.
func (t *FatTree) NumProcessors() int { return t.numProc }

// NumChannels implements Network.
func (t *FatTree) NumChannels() int { return len(t.tab.Kind) }

// Tables implements Network.
func (t *FatTree) Tables() *Tables { return t.tab }

// NextGroup implements Network. A worm whose head traversed cur sits at the
// switch cur leads to; it goes down if dst lies in that switch's subtree
// block (a unique child) and otherwise contends for the switch's up-link
// pair.
func (t *FatTree) NextGroup(cur ChannelID, dst int) GroupID {
	s := t.switchOf(cur)
	if s < 0 {
		panic("topology: NextGroup called on an ejection channel")
	}
	r := &t.sw[s]
	if dst>>r.shift == int(r.blk) {
		return r.down[dst>>(r.shift-2)&3]
	}
	if r.up == None {
		l, a := t.switchAt(s)
		panic(fmt.Sprintf("topology: no up-links at root switch S(%d,%d) for dst %d", l, a, dst))
	}
	return r.up
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

// UpLinksBetween returns the number of channels from level l to level l+1
// (equal to the number from l+1 down to l): 4^n / 2^l, as in §3.2.
func (t *FatTree) UpLinksBetween(l int) int {
	if l < 1 || l >= t.n {
		return 0
	}
	return t.numProc >> l
}

// SwitchOf returns the (level, addr) pair of the switch a channel leads
// to, with ok=false for ejection channels.
func (t *FatTree) SwitchOf(ch ChannelID) (level, addr int, ok bool) {
	s := t.switchOf(ch)
	if s < 0 {
		return 0, 0, false
	}
	level, addr = t.switchAt(s)
	return level, addr, true
}

// Describe dumps the switch wiring in a human-readable form, reproducing
// the structure of the paper's Figure 2 textually.
func (t *FatTree) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "butterfly fat-tree: N=%d processors, n=%d switch levels, %d channels, %d arbitration groups\n",
		t.numProc, t.n, t.NumChannels(), bytes.Count(t.tab.Lead, []byte{0}))
	for l := 1; l <= t.n; l++ {
		fmt.Fprintf(&b, "level %d: %d switches\n", l, t.switchesAtLevel(l))
	}
	for s, r := range t.sw {
		l, a := t.switchAt(s)
		fmt.Fprintf(&b, "S(%d,%d):", l, a)
		for sub, g := range r.down {
			if cl, ca, ok := t.SwitchOf(g); ok {
				fmt.Fprintf(&b, " child%d->S(%d,%d)", sub, cl, ca)
			} else {
				fmt.Fprintf(&b, " child%d->P(%d)", sub, g/t.tab.Stride)
			}
		}
		if s < len(t.parents) {
			for i, ps := range t.parents[s] {
				pl, pa := t.switchAt(int(ps))
				fmt.Fprintf(&b, " parent%d->S(%d,%d)", i, pl, pa)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
