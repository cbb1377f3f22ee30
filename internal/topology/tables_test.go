package topology

import (
	"runtime"
	"testing"

	"repro/internal/traffic"
)

// nextGroupByDefinition is the fat-tree's routing rule as §3.1 states it,
// walked through the per-switch arrays: the definition the packed hop
// records behind NextGroup are checked against.
func nextGroupByDefinition(t *FatTree, cur ChannelID, dst int) GroupID {
	s := t.toSw[cur]
	l, a := int(t.level[s]), int(t.addr[s])
	if dst>>(2*l) == a>>(l-1) {
		return t.tab.GroupOf[t.childCh[s][dst>>(2*(l-1))&3]]
	}
	return t.upGroup[s]
}

// TestTablesMatchInterface: every network size the repo builds has
// columns the length of its channels and processors and groups that
// partition its channels as GroupOf says, and the fat-tree's packed
// routing record says what the routing rule says.
func TestTablesMatchInterface(t *testing.T) {
	var nets []Network
	for n := 4; n <= 4096; n *= 4 {
		nets = append(nets, MustFatTree(n))
	}
	for dims := 1; dims <= 10; dims++ {
		nets = append(nets, MustHypercube(dims))
	}
	for _, net := range nets {
		tab := net.Tables()
		nCh := net.NumChannels()
		if len(tab.GroupOf) != nCh || len(tab.EjectsTo) != nCh || len(tab.Kind) != nCh ||
			len(tab.Members) != nCh || len(tab.Inject) != net.NumProcessors() {
			t.Fatalf("%s: column sizes %d/%d/%d/%d/%d for %d channels, %d processors", net.Name(),
				len(tab.GroupOf), len(tab.EjectsTo), len(tab.Kind), len(tab.Members), len(tab.Inject),
				nCh, net.NumProcessors())
		}
		for g := GroupID(0); int(g) < len(tab.GroupOff)-1; g++ {
			members := tab.Group(g)
			for i, ch := range members {
				if tab.GroupOf[ch] != g || i > 0 && ch <= members[i-1] {
					t.Fatalf("%s: group %d lists %v, against GroupOf or out of order",
						net.Name(), g, members)
				}
			}
		}
		// Group hands out views of one array; an append to one must
		// reallocate, not run into the next group's members.
		if len(tab.GroupOff) > 2 {
			next := tab.Group(1)[0]
			_ = append(tab.Group(0), None)
			if tab.Group(1)[0] != next {
				t.Fatalf("%s: append to Group(0) overwrote group 1", net.Name())
			}
		}
	}

	for n := 4; n <= 256; n *= 4 {
		ft := MustFatTree(n)
		for ch := ChannelID(0); int(ch) < ft.NumChannels(); ch++ {
			if ft.toSw[ch] < 0 {
				continue
			}
			for dst := 0; dst < n; dst++ {
				if got, want := ft.NextGroup(ch, dst), nextGroupByDefinition(ft, ch, dst); got != want {
					t.Fatalf("bft-%d: NextGroup(%d, %d) = %d, definition %d", n, ch, dst, got, want)
				}
			}
		}
	}
	rng := traffic.NewRNG(22)
	for _, n := range []int{1024, 4096} {
		ft := MustFatTree(n)
		for i := 0; i < 100_000; i++ {
			ch, dst := ChannelID(rng.Intn(ft.NumChannels())), rng.Intn(n)
			if ft.toSw[ch] < 0 {
				continue
			}
			if got, want := ft.NextGroup(ch, dst), nextGroupByDefinition(ft, ch, dst); got != want {
				t.Fatalf("bft-%d: NextGroup(%d, %d) = %d, definition %d", n, ch, dst, got, want)
			}
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
func TestFatTreeBuildAllocs(t *testing.T) {
	for _, n := range []int{64, 1024} {
		if got, want := buildAllocs(func() { MustFatTree(n) }), 15.0; got != want {
			t.Errorf("bft-%d: %v allocations per build, want %v", n, got, want)
		}
	}
}

func TestHypercubeBuildAllocs(t *testing.T) {
	for _, dims := range []int{6, 10} {
		if got, want := buildAllocs(func() { MustHypercube(dims) }), 8.0; got != want {
			t.Errorf("hcube-%d: %v allocations per build, want %v", 1<<dims, got, want)
		}
	}
}
