package topology

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// perChannelRouter is the fat-tree's router built the per-channel way: the
// §3.1 wiring walked switch by switch, channels appended in construction
// order, and every channel given the switch it leads to and that switch's
// routing record. It is the reference the per-switch records and the
// position-derived switch of a channel are checked against.
type perChannelRouter struct {
	toSw  [][2]int // (level, addr) of the switch each channel leads to; level 0 for ejection
	hops  []route  // the routing record of that switch
	group []GroupID
}

func newPerChannelRouter(numProc int) *perChannelRouter {
	n, _ := log4(numProc)
	r := new(perChannelRouter)
	addCh := func(l, a int, g GroupID) int {
		r.toSw = append(r.toSw, [2]int{l, a})
		r.group = append(r.group, g)
		return len(r.toSw) - 1
	}
	g := GroupID(0)
	childCh := map[[2]int]*[4]int{}
	child := func(l, a int) *[4]int {
		if childCh[[2]int{l, a}] == nil {
			childCh[[2]int{l, a}] = &[4]int{-1, -1, -1, -1}
		}
		return childCh[[2]int{l, a}]
	}
	upGroup := map[[2]int]GroupID{}
	for p := 0; p < numProc; p++ {
		addCh(1, p/4, g)
		child(1, p/4)[p%4] = addCh(0, p, g+1)
		g += 2
	}
	for l := 1; l < n; l++ {
		stride := 1 << (l - 1)
		for a := 0; a < numProc/(2<<l); a++ {
			base := a / (2 << l) * (1 << l)
			pa := [2]int{base + a%(1<<l), base + (a+stride)%(1<<l)}
			port := a % (2 << l) / stride
			addCh(l+1, pa[0], g)
			addCh(l+1, pa[1], g)
			upGroup[[2]int{l, a}] = g
			child(l+1, pa[0])[port] = addCh(l, a, g+1)
			child(l+1, pa[1])[port] = addCh(l, a, g+2)
			g += 3
		}
	}
	r.hops = make([]route, len(r.toSw))
	for ch, sw := range r.toSw {
		l, a := sw[0], sw[1]
		if l == 0 {
			continue
		}
		h := &r.hops[ch]
		h.shift, h.blk, h.up = int32(2*l), int32(a>>(l-1)), None
		if up, ok := upGroup[sw]; ok {
			h.up = up
		}
		for sub, c := range child(l, a) {
			h.down[sub] = r.group[c]
		}
	}
	return r
}

func (r *perChannelRouter) nextGroup(cur ChannelID, dst int) GroupID {
	h := &r.hops[cur]
	if dst>>h.shift == int(h.blk) {
		return h.down[dst>>(h.shift-2)&3]
	}
	return h.up
}

// TestFatTreeRoutesBySwitch: the per-switch records route every worm as
// the per-channel reference does, and the switch a channel's position
// names is the one the wiring leads it to. bft-4 through bft-1024 are
// checked for every channel and destination, bft-4096 and bft-65536 on
// sampled pairs.
func TestFatTreeRoutesBySwitch(t *testing.T) {
	rng := traffic.NewRNG(22)
	for n := 4; n <= MaxProcessors; n *= 4 {
		ft, ref := MustFatTree(n), newPerChannelRouter(n)
		if ft.NumChannels() != len(ref.toSw) {
			t.Fatalf("bft-%d: %d channels, the wiring lays %d", n, ft.NumChannels(), len(ref.toSw))
		}
		for ch := range ref.toSw {
			l, a, ok := ft.SwitchOf(ChannelID(ch))
			if want := ref.toSw[ch]; !ok && want[0] != 0 || ok && [2]int{l, a} != want {
				t.Fatalf("bft-%d: channel %d leads to S(%d,%d) ok=%v, the wiring says %v", n, ch, l, a, ok, want)
			}
			if ft.Tables().GroupOf[ch] != ref.group[ch] {
				t.Fatalf("bft-%d: channel %d in group %d, the wiring says %d", n, ch, ft.Tables().GroupOf[ch], ref.group[ch])
			}
		}
		check := func(ch ChannelID, dst int) {
			if got, want := ft.NextGroup(ch, dst), ref.nextGroup(ch, dst); got != want {
				t.Fatalf("bft-%d: NextGroup(%d, %d) = %d, per-channel reference %d", n, ch, dst, got, want)
			}
		}
		if n <= 1024 {
			for ch := range ref.toSw {
				if ref.toSw[ch][0] == 0 {
					continue
				}
				for dst := 0; dst < n; dst++ {
					if ref.hops[ch].up != None || dst>>ref.hops[ch].shift == int(ref.hops[ch].blk) {
						check(ChannelID(ch), dst)
					}
				}
			}
			continue
		}
		for i := 0; i < 200_000; i++ {
			ch, dst := ChannelID(rng.Intn(ft.NumChannels())), rng.Intn(n)
			if ref.toSw[ch][0] != 0 && (ref.hops[ch].up != None || dst>>ref.hops[ch].shift == int(ref.hops[ch].blk)) {
				check(ch, dst)
			}
		}
	}
}

// TestTablesMatchInterface: every network size the repo builds has
// columns the length of its channels and processors, and its groups are
// runs of channels numbered in channel order, as GroupOf says.
func TestTablesMatchInterface(t *testing.T) {
	var nets []Network
	for n := 4; n <= MaxProcessors; n *= 4 {
		nets = append(nets, MustFatTree(n))
	}
	for dims := 1; 1<<dims <= MaxProcessors; dims++ {
		nets = append(nets, MustHypercube(dims))
	}
	for _, net := range nets {
		tab := net.Tables()
		nCh := net.NumChannels()
		if len(tab.GroupOf) != nCh || len(tab.EjectsTo) != nCh || len(tab.Kind) != nCh ||
			len(tab.Inject) != net.NumProcessors() {
			t.Fatalf("%s: column sizes %d/%d/%d/%d for %d channels, %d processors", net.Name(),
				len(tab.GroupOf), len(tab.EjectsTo), len(tab.Kind), len(tab.Inject),
				nCh, net.NumProcessors())
		}
		nGr := GroupID(len(tab.GroupOff) - 1)
		if tab.GroupOff[0] != 0 || tab.GroupOff[nGr] != int32(nCh) {
			t.Fatalf("%s: groups span [%d, %d), want [0, %d)", net.Name(), tab.GroupOff[0], tab.GroupOff[nGr], nCh)
		}
		for g := GroupID(0); g < nGr; g++ {
			lo, hi := tab.Group(g)
			if lo >= hi {
				t.Fatalf("%s: group %d is the empty run [%d, %d)", net.Name(), g, lo, hi)
			}
			for ch := lo; ch < hi; ch++ {
				if tab.GroupOf[ch] != g {
					t.Fatalf("%s: channel %d of group %d's run [%d, %d) is in group %d",
						net.Name(), ch, g, lo, hi, tab.GroupOf[ch])
				}
			}
		}
	}
}

// newTables takes only a GroupOf column whose groups are runs numbered in
// channel order.
func TestNewTablesRejectsScatteredGroups(t *testing.T) {
	for _, groupOf := range [][]GroupID{
		{0, 1, 0},    // group 0 split in two
		{1, 0},       // numbered against channel order
		{0, 2},       // group 1 missing
		{1},          // group 0 missing
		{-1, 0},      // a channel in no group
		{0, 0, 1, 3}, // a gap at the end
	} {
		n := len(groupOf)
		_, err := newTables(groupOf, make([]int32, n), make([]ChannelKind, n), nil)
		if err == nil || !strings.Contains(err.Error(), "run of channels") {
			t.Errorf("newTables(%v): error %v, want a rejection", groupOf, err)
		}
	}
	tab, err := newTables([]GroupID{0, 0, 1, 2, 2, 2}, make([]int32, 6), make([]ChannelKind, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 2, 3, 6}; len(tab.GroupOff) != len(want) ||
		tab.GroupOff[0] != want[0] || tab.GroupOff[1] != want[1] || tab.GroupOff[2] != want[2] || tab.GroupOff[3] != want[3] {
		t.Errorf("GroupOff = %v, want %v", tab.GroupOff, want)
	}
}

// A destination outside the machine sends a worm up from a root switch,
// which has no up-links; the message names the switch.
func TestFatTreeRootPanicMessage(t *testing.T) {
	ft := MustFatTree(16)
	var atRoot ChannelID = None
	for ch := ChannelID(0); int(ch) < ft.NumChannels(); ch++ {
		if l, a, ok := ft.SwitchOf(ch); ok && l == 2 && a == 1 {
			atRoot = ch
			break
		}
	}
	defer func() {
		want := "topology: no up-links at root switch S(2,1) for dst 16"
		if got := recover(); got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	ft.NextGroup(atRoot, 16)
}

// buildAllocs counts the allocations of one build. The process's first
// garbage collection starts the runtime's mark workers, and their
// goroutines would be counted if it began mid-measurement; force it first.
func buildAllocs(build func()) float64 {
	runtime.GC()
	return testing.AllocsPerRun(5, build)
}

// TestFatTreeBuildAllocs and TestHypercubeBuildAllocs pin what building a
// network costs: a fixed number of arrays whatever its size, not one slice
// per arbitration group (3,578 allocations for bft-1024 before the tables).
func TestFatTreeBuildAllocs(t *testing.T) {
	for _, n := range []int{64, 1024} {
		if got, want := buildAllocs(func() { MustFatTree(n) }), 9.0; got != want {
			t.Errorf("bft-%d: %v allocations per build, want %v", n, got, want)
		}
	}
}

func TestHypercubeBuildAllocs(t *testing.T) {
	for _, dims := range []int{6, 10} {
		if got, want := buildAllocs(func() { MustHypercube(dims) }), 7.0; got != want {
			t.Errorf("hcube-%d: %v allocations per build, want %v", 1<<dims, got, want)
		}
	}
}

// TestFatTreeBuildAllocBytes caps what one bft-1024 build allocates, about
// 74 KB, so a per-channel table cannot come back unnoticed: a routing
// record per channel alone was 111 KB.
func TestFatTreeBuildAllocBytes(t *testing.T) {
	const builds, budget = 20, 100 << 10
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		MustFatTree(1024)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > budget {
		t.Errorf("bft-1024: %d bytes per build, budget %d", got, budget)
	}
}
