package topology

import (
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
type FatTree struct {
	n       int // N = 4^n
	numProc int
	name    lazyName

	// Per-switch data, indexed by switchIndex.
	level   []int32
	addr    []int32
	upGroup []GroupID      // arbitration group of the two up-links; None at level n
	childCh [][4]ChannelID // down channel per sub-block index 0..3

	// Per-channel data beside the tables.
	toSw []int32 // destination switch index, or -1 for ejection channels
	hops []hop   // what NextGroup needs at the switch each channel leads to

	tab *Tables
}

// hop packs everything NextGroup reads into one record per channel, so a
// routing decision is one load instead of a walk through the per-switch
// arrays: the switch the channel leads to covers processor block blk at
// granularity 2^shift (shift = 2·level; 0 marks an ejection channel),
// reaches sub-block i through group down[i] and its parents through up.
type hop struct {
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

	// Index switches level by level, and size the channel columns: every
	// processor has an injection and an ejection channel, every switch
	// below the top two up-links and the two down-links that mirror them.
	offset := make([]int, n+2)
	total := 0
	for l := 1; l <= n; l++ {
		offset[l] = total
		total += t.switchesAtLevel(l)
	}
	offset[n+1] = total
	numCh := 2*numProc + 4*offset[n]
	t.level = make([]int32, total)
	t.addr = make([]int32, total)
	t.upGroup = make([]GroupID, total)
	t.childCh = make([][4]ChannelID, total)
	for s := range t.childCh {
		t.upGroup[s] = None
		t.childCh[s] = [4]ChannelID{None, None, None, None}
	}
	for l := 1; l <= n; l++ {
		for a := 0; a < t.switchesAtLevel(l); a++ {
			s := offset[l] + a
			t.level[s] = int32(l)
			t.addr[s] = int32(a)
		}
	}
	swIdx := func(l, a int) int { return offset[l] + a }

	kinds := make([]ChannelKind, 0, numCh)
	ejectsTo := make([]int32, 0, numCh)
	groupOf := make([]GroupID, 0, numCh)
	t.toSw = make([]int32, 0, numCh)
	// addChannel appends a channel to the group being formed (open);
	// closeGroup ends that group, so a group is a run of consecutive
	// channels.
	open := GroupID(0)
	addChannel := func(kind ChannelKind, to int32, ejProc int32) ChannelID {
		id := ChannelID(len(kinds))
		kinds = append(kinds, kind)
		t.toSw = append(t.toSw, to)
		ejectsTo = append(ejectsTo, ejProc)
		groupOf = append(groupOf, open)
		return id
	}
	closeGroup := func() GroupID {
		open++
		return open - 1
	}

	// Injection and ejection channels (processor <-> level-1 switches).
	inject := make([]ChannelID, numProc)
	for p := 0; p < numProc; p++ {
		s := swIdx(1, p/4)
		inject[p] = addChannel(KindInjection, int32(s), -1)
		closeGroup()
		ej := addChannel(KindEjection, -1, int32(p))
		closeGroup()
		sub := p & 3
		if t.childCh[s][sub] != None {
			return nil, fmt.Errorf("topology: duplicate child port %d on S(1,%d)", sub, p/4)
		}
		t.childCh[s][sub] = ej
	}

	// Switch-to-switch channels for levels 1..n-1.
	for l := 1; l < n; l++ {
		stride := 1 << (l - 1) // 2^(l-1)
		for a := 0; a < t.switchesAtLevel(l); a++ {
			s := swIdx(l, a)
			base := a / (2 << l) * (1 << l) // ⌊a/2^(l+1)⌋·2^l
			pa0 := base + a%(1<<l)
			pa1 := base + (a+stride)%(1<<l)
			childPort := a % (2 << l) / stride // ⌊(a mod 2^(l+1))/2^(l−1)⌋

			addChannel(KindUp, int32(swIdx(l+1, pa0)), -1)
			addChannel(KindUp, int32(swIdx(l+1, pa1)), -1)
			t.upGroup[s] = closeGroup()

			for _, pa := range []int{pa0, pa1} {
				ps := swIdx(l+1, pa)
				down := addChannel(KindDown, int32(s), -1)
				closeGroup()
				if t.childCh[ps][childPort] != None {
					return nil, fmt.Errorf("topology: duplicate child port %d on S(%d,%d)",
						childPort, l+1, pa)
				}
				t.childCh[ps][childPort] = down
			}
		}
	}

	// Sanity: every child port of every switch must be wired, and the
	// child port index must coincide with the sub-block index used for
	// routing (a property of the butterfly wiring the router relies on).
	for s := range t.childCh {
		for sub, ch := range t.childCh[s] {
			if ch == None {
				return nil, fmt.Errorf("topology: unwired child port %d on S(%d,%d)",
					sub, t.level[s], t.addr[s])
			}
			if down := t.toSw[ch]; down >= 0 {
				wantSub := int(t.addr[down]) >> (int(t.level[down]) - 1) & 3
				if wantSub != sub {
					return nil, fmt.Errorf("topology: child port %d of S(%d,%d) leads to sub-block %d",
						sub, t.level[s], t.addr[s], wantSub)
				}
			}
		}
	}

	t.hops = make([]hop, numCh)
	for ch, s := range t.toSw {
		if s < 0 {
			continue
		}
		h := &t.hops[ch]
		h.shift = 2 * t.level[s]
		h.blk = t.addr[s] >> (t.level[s] - 1)
		h.up = t.upGroup[s]
		for sub, down := range t.childCh[s] {
			h.down[sub] = groupOf[down]
		}
	}
	t.tab = newTables(groupOf, ejectsTo, kinds, inject)
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

// Levels returns n = log4(N), the number of switch levels.
func (t *FatTree) Levels() int { return t.n }

// SwitchesAtLevel returns the number of switches at level l (1 <= l <= n).
func (t *FatTree) SwitchesAtLevel(l int) int { return t.switchesAtLevel(l) }

// Name implements Network.
func (t *FatTree) Name() string { return t.name.get("bft-", t.numProc) }

// NumProcessors implements Network.
func (t *FatTree) NumProcessors() int { return t.numProc }

// NumChannels implements Network.
func (t *FatTree) NumChannels() int { return len(t.toSw) }

// Tables implements Network.
func (t *FatTree) Tables() *Tables { return t.tab }

// NextGroup implements Network. A worm whose head traversed cur sits at the
// switch cur leads to; it goes down if dst lies in that switch's subtree
// block (a unique child) and otherwise contends for the switch's up-link
// pair.
func (t *FatTree) NextGroup(cur ChannelID, dst int) GroupID {
	h := &t.hops[cur]
	if h.shift == 0 {
		panic("topology: NextGroup called on an ejection channel")
	}
	if dst>>h.shift == int(h.blk) {
		return h.down[dst>>(h.shift-2)&3]
	}
	if h.up == None {
		l, a, _ := t.SwitchOf(cur)
		panic(fmt.Sprintf("topology: no up-links at root switch S(%d,%d) for dst %d", l, a, dst))
	}
	return h.up
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
	s := t.toSw[ch]
	if s < 0 {
		return 0, 0, false
	}
	return int(t.level[s]), int(t.addr[s]), true
}

// Describe dumps the switch wiring in a human-readable form, reproducing
// the structure of the paper's Figure 2 textually.
func (t *FatTree) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "butterfly fat-tree: N=%d processors, n=%d switch levels, %d channels, %d arbitration groups\n",
		t.numProc, t.n, t.NumChannels(), len(t.tab.GroupOff)-1)
	for l := 1; l <= t.n; l++ {
		fmt.Fprintf(&b, "level %d: %d switches\n", l, t.switchesAtLevel(l))
	}
	for s := range t.level {
		l, a := int(t.level[s]), int(t.addr[s])
		fmt.Fprintf(&b, "S(%d,%d):", l, a)
		for sub, ch := range t.childCh[s] {
			if down := t.toSw[ch]; down >= 0 {
				fmt.Fprintf(&b, " child%d->S(%d,%d)", sub, t.level[down], t.addr[down])
			} else {
				fmt.Fprintf(&b, " child%d->P(%d)", sub, t.tab.EjectsTo[ch])
			}
		}
		if g := t.upGroup[s]; g != None {
			for i, up := range t.tab.Group(g) {
				ps := t.toSw[up]
				fmt.Fprintf(&b, " parent%d->S(%d,%d)", i, t.level[ps], t.addr[ps])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
