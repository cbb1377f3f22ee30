package topology

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// perChannelRouter is the fat-tree's router built the per-channel way: the
// §3.1 wiring walked switch by switch, channels appended in construction
// order, and every channel given the switch it leads to and that switch's
// routing record. It is the reference NextGroup's formulas and the
// position-derived switch of a channel are checked against, and the
// wiring's only check.
type perChannelRouter struct {
	toSw  [][2]int // (level, addr) of the switch each channel leads to; level 0 for ejection
	hops  []route  // the routing record of that switch
	group []GroupID
}

// None marks the absence of a group in the reference's records.
const None GroupID = -1

// route is what the reference reads at one switch: the switch covers
// processor block blk at granularity 2^shift (shift = 2·level), reaches
// sub-block i through group down[i] and its parents through up (None at
// the top level), each group named by its first channel.
type route struct {
	shift int32
	blk   int32
	up    GroupID
	down  [4]GroupID
}

func newPerChannelRouter(numProc int) *perChannelRouter {
	n, _ := log4(numProc)
	r := new(perChannelRouter)
	// addCh appends a channel to group g or, for g = None, starts a group
	// that the channel names.
	addCh := func(l, a int, g GroupID) int {
		ch := len(r.toSw)
		if g == None {
			g = GroupID(ch)
		}
		r.toSw = append(r.toSw, [2]int{l, a})
		r.group = append(r.group, g)
		return ch
	}
	childCh := map[[2]int]*[4]int{}
	child := func(l, a int) *[4]int {
		if childCh[[2]int{l, a}] == nil {
			childCh[[2]int{l, a}] = &[4]int{-1, -1, -1, -1}
		}
		return childCh[[2]int{l, a}]
	}
	upGroup := map[[2]int]GroupID{}
	for p := 0; p < numProc; p++ {
		addCh(1, p/4, None)
		child(1, p/4)[p%4] = addCh(0, p, None)
	}
	for l := 1; l < n; l++ {
		stride := 1 << (l - 1)
		for a := 0; a < numProc/(2<<l); a++ {
			base := a / (2 << l) * (1 << l)
			pa := [2]int{base + a%(1<<l), base + (a+stride)%(1<<l)}
			port := a % (2 << l) / stride
			up := GroupID(addCh(l+1, pa[0], None))
			addCh(l+1, pa[1], up)
			upGroup[[2]int{l, a}] = up
			child(l+1, pa[0])[port] = addCh(l, a, None)
			child(l+1, pa[1])[port] = addCh(l, a, None)
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

// TestFatTreeRoutesBySwitch: NextGroup's formulas route every worm as
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
			if g := ChannelID(ch) - ChannelID(ft.Tables().Lead[ch]); g != ref.group[ch] {
				t.Fatalf("bft-%d: channel %d in group %d, the wiring says %d", n, ch, g, ref.group[ch])
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

// TestTablesMatchInterface: every network size the repo builds keeps the
// tables' layout rule. Processor p's channels at p·Stride and p·Stride+1
// are its injection and ejection channels and lead their groups; every
// group is the run from a channel of lead 0 to the next; and NextGroup
// names groups by their first channel. Networks up to 4M channel and
// destination pairs route every pair, larger ones 200,000 sampled pairs.
func TestTablesMatchInterface(t *testing.T) {
	var nets []Network
	for n := 4; n <= MaxProcessors; n *= 4 {
		nets = append(nets, MustFatTree(n))
	}
	for dims := 1; 1<<dims <= MaxProcessors; dims++ {
		nets = append(nets, MustHypercube(dims))
	}
	rng := traffic.NewRNG(55)
	for _, net := range nets {
		tab := net.Tables()
		nCh, nProc, stride := net.NumChannels(), net.NumProcessors(), int(tab.Stride)
		if len(tab.Kind) != nCh || len(tab.Lead) != nCh {
			t.Fatalf("%s: %d kinds and %d lead bytes for %d channels", net.Name(), len(tab.Kind), len(tab.Lead), nCh)
		}
		for p := 0; p < nProc; p++ {
			inj, ej := ChannelID(p*stride), ChannelID(p*stride+1)
			if tab.Injection(p) != inj || tab.Ejection(p) != ej {
				t.Fatalf("%s: processor %d's channels are %d and %d, the stride puts them at %d and %d",
					net.Name(), p, tab.Injection(p), tab.Ejection(p), inj, ej)
			}
			if tab.Kind[inj] != KindInjection || tab.Kind[ej] != KindEjection || tab.Lead[inj] != 0 || tab.Lead[ej] != 0 {
				t.Fatalf("%s: processor %d's channels %d and %d have kinds %v, %v and lead bytes %d, %d",
					net.Name(), p, inj, ej, tab.Kind[inj], tab.Kind[ej], tab.Lead[inj], tab.Lead[ej])
			}
		}
		lo := ChannelID(0)
		for ch := ChannelID(1); int(ch) <= nCh; ch++ {
			if int(ch) < nCh && tab.Lead[ch] != 0 {
				if int(tab.Lead[ch]) != int(ch-lo) {
					t.Fatalf("%s: channel %d leads by %d, %d channels into the group at %d",
						net.Name(), ch, tab.Lead[ch], ch-lo, lo)
				}
				continue
			}
			if glo, ghi := tab.Group(lo); glo != lo || ghi != ch {
				t.Fatalf("%s: group %d is [%d, %d), want the run [%d, %d)", net.Name(), lo, glo, ghi, lo, ch)
			}
			lo = ch
		}
		if tab.Lead[0] != 0 {
			t.Fatalf("%s: channel 0 leads by %d", net.Name(), tab.Lead[0])
		}
		check := func(ch ChannelID, dst int) {
			if tab.Kind[ch] == KindEjection {
				return
			}
			if g := net.NextGroup(ch, dst); g < 0 || int(g) >= nCh || tab.Lead[g] != 0 {
				t.Fatalf("%s: NextGroup(%d, %d) = %d, not a group's first channel", net.Name(), ch, dst, g)
			}
		}
		if nCh*nProc <= 4<<20 {
			for ch := ChannelID(0); int(ch) < nCh; ch++ {
				for dst := 0; dst < nProc; dst++ {
					check(ch, dst)
				}
			}
			continue
		}
		for i := 0; i < 200_000; i++ {
			check(ChannelID(rng.Intn(nCh)), rng.Intn(nProc))
		}
	}
}

// newTables takes only columns that keep the layout rule: a lead byte that
// steps by one from 0 within a group, and each processor's injection and
// ejection channels at the stride, in groups of their own, the only
// channels of those kinds.
func TestNewTablesRejectsScatteredGroups(t *testing.T) {
	const (
		I, E, U, D = KindInjection, KindEjection, KindUp, KindDown
	)
	// Two processors at stride 3, then two up-links and a down-link.
	kind := []ChannelKind{I, E, D, I, E, D, U, U, D}
	lead := []uint8{0, 0, 0, 0, 0, 0, 0, 1, 0}
	for _, c := range []struct {
		name string
		at   int
		kind ChannelKind
		lead uint8
		want string
	}{
		{"a group starting at a lead of 1", 0, I, 1, "run of channels"},
		{"a lead byte that skips", 7, U, 2, "run of channels"},
		{"a lead byte that starts mid-run", 8, D, 1, "run of channels"},
		{"an ejection channel in its injection channel's group", 1, E, 1, "groups of their own"},
		{"a processor channel of the wrong kind", 3, D, 0, "injection and an ejection"},
		{"an injection channel of no processor", 6, I, 0, "no processor's"},
		{"an ejection channel at an injection channel's place", 5, E, 0, "no processor's"},
		{"a group trailing an ejection channel", 5, D, 1, "groups of their own"},
	} {
		k, l := append([]ChannelKind(nil), kind...), append([]uint8(nil), lead...)
		k[c.at], l[c.at] = c.kind, c.lead
		_, err := newTables(k, l, 3, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
	}
	for _, c := range []struct {
		name    string
		lead    []uint8
		stride  int32
		numProc int
	}{
		{"a lead column of the wrong length", lead[:8], 3, 2},
		{"a stride of 1", lead, 1, 2},
		{"more processors than channels", lead, 3, 3},
		{"no processors", lead, 3, 0},
	} {
		if _, err := newTables(kind, c.lead, c.stride, c.numProc); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	tab, err := newTables(kind, lead, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for g, want := range map[GroupID]ChannelID{0: 1, 2: 3, 5: 6, 6: 8, 8: 9} {
		if lo, hi := tab.Group(g); lo != g || hi != want {
			t.Errorf("Group(%d) = [%d, %d), want [%d, %d)", g, lo, hi, g, want)
		}
	}
}

// TestFatTreeDescribePinned: Describe's dump of bft-4 through bft-1024,
// one SHA-256 per size, as it was when groups were numbered in their own
// column and the processor a channel ejects to was read from a table.
func TestFatTreeDescribePinned(t *testing.T) {
	for n, want := range map[int]string{
		4:    "6762927191a3ef5abfb20df77f3a07d281ed376593e0078a2f4391d4614464d9",
		16:   "ff8e9c01e9a525d2337d1cdb02530fbf53a31f2e213ee10a46b33475b4ffe2c8",
		64:   "eb0c72f955494c18dadf0822559ee4b4845d421b2342e68c940c7dbf3d9d330b",
		256:  "b9eb880c018504b58d6b68e3e6b08b1f86fcb112260929608db461ec2a6da775",
		1024: "423c5aaf427a5127d43a93e40082caac2fc08d2dc6945e362098bad4d5e4f96a",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(MustFatTree(n).Describe()))); got != want {
			t.Errorf("bft-%d: Describe hashes to %s, want %s", n, got, want)
		}
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
// Either network is its struct, its two columns and the Tables that holds
// them: a fat-tree routes by §3.1's formulas and keeps no per-switch
// records (6 allocations with them).
func TestFatTreeBuildAllocs(t *testing.T) {
	for _, n := range []int{64, 1024} {
		if got, want := buildAllocs(func() { MustFatTree(n) }), 4.0; got != want {
			t.Errorf("bft-%d: %v allocations per build, want %v", n, got, want)
		}
	}
}

func TestHypercubeBuildAllocs(t *testing.T) {
	for _, dims := range []int{6, 10} {
		if got, want := buildAllocs(func() { MustHypercube(dims) }), 4.0; got != want {
			t.Errorf("hcube-%d: %v allocations per build, want %v", 1<<dims, got, want)
		}
	}
}

// buildBytes is what one build allocates, averaged over builds.
func buildBytes(builds int, build func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(builds)
}

// TestFatTreeBuildAllocBytes caps what one bft-1024 build allocates, about
// 8 KB (two bytes for each of its 3,968 channels), so no per-switch or
// per-channel table can come back unnoticed: the routing record per switch
// and the parents table the formulas replaced were 18 KB, the four int32
// columns the lead byte and the stride replaced 47 KB, and a routing
// record per channel 111 KB.
func TestFatTreeBuildAllocBytes(t *testing.T) {
	const budget = 10 << 10
	if got := buildBytes(20, func() { MustFatTree(1024) }); got > budget {
		t.Errorf("bft-1024: %d bytes per build, budget %d", got, budget)
	}
}

// TestHypercubeBuildAllocBytes caps the 16-cube, the largest hypercube a
// request may ask for: two bytes for each of its 1,179,648 channels, about
// 2.36 MB, where the four int32 columns made it 15.6 MB.
func TestHypercubeBuildAllocBytes(t *testing.T) {
	const budget = 2500 << 10
	if got := buildBytes(3, func() { MustHypercube(16) }); got > budget {
		t.Errorf("hcube-65536: %d bytes per build, budget %d", got, budget)
	}
}
