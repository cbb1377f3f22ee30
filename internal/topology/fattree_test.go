package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/traffic"
)

// walk follows NextGroup from src to dst, choosing among adaptive
// candidates, the group's channels [lo, hi), with pick, and returns the
// channel path.
func walk(t *testing.T, net Network, src, dst int, pick func(lo, hi ChannelID) ChannelID) []ChannelID {
	t.Helper()
	tab := net.Tables()
	ch := tab.Injection(src)
	path := []ChannelID{ch}
	for ch != tab.Ejection(dst) {
		if len(path) > 4*net.NumChannels() {
			t.Fatalf("walk %d->%d did not terminate", src, dst)
		}
		g := net.NextGroup(ch, dst)
		ch = pick(tab.Group(g))
		path = append(path, ch)
	}
	return path
}

func first(lo, _ ChannelID) ChannelID { return lo }
func last(_, hi ChannelID) ChannelID  { return hi - 1 }

func TestFatTreeSizes(t *testing.T) {
	cases := []struct {
		n                int
		levels           int
		channels         int
		topLevelSwitches int
	}{
		// channels = 2N (inj+ej) + sum_{l=1..n-1} 2*(N/2^l) up+down pairs.
		{4, 1, 8, 1},
		{16, 2, 48, 2},
		{64, 3, 224, 4},
		{256, 4, 960, 8},
		{1024, 5, 3968, 16},
	}
	for _, c := range cases {
		ft := MustFatTree(c.n)
		if ft.Levels() != c.levels {
			t.Errorf("N=%d: levels = %d, want %d", c.n, ft.Levels(), c.levels)
		}
		want := 2 * c.n
		for l := 1; l < c.levels; l++ {
			want += 2 * (c.n >> l)
		}
		if want != c.channels {
			t.Fatalf("test table inconsistent for N=%d: %d vs %d", c.n, want, c.channels)
		}
		if ft.NumChannels() != c.channels {
			t.Errorf("N=%d: channels = %d, want %d", c.n, ft.NumChannels(), c.channels)
		}
		top := map[int]bool{}
		for ch := ChannelID(0); int(ch) < ft.NumChannels(); ch++ {
			if l, a, ok := ft.SwitchOf(ch); ok && l == c.levels {
				top[a] = true
			}
		}
		if len(top) != c.topLevelSwitches || c.n/(2<<c.levels) != c.topLevelSwitches {
			t.Errorf("N=%d: channels lead to %d top switches, want %d", c.n, len(top), c.topLevelSwitches)
		}
		if ft.NumProcessors() != c.n {
			t.Errorf("N=%d: NumProcessors = %d", c.n, ft.NumProcessors())
		}
	}
}

func TestFatTreeRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 15, 17, 32, 100, -4} {
		if _, err := NewFatTree(n); err == nil {
			t.Errorf("NewFatTree(%d) accepted a non-power-of-four size", n)
		}
	}
}

// The hand-derived wiring for N=16 from the paper's formulas (§3.1).
func TestFatTree16WiringMatchesPaperFormulas(t *testing.T) {
	ft := MustFatTree(16)
	desc := ft.Describe()
	want := []string{
		"S(1,0): child0->P(0) child1->P(1) child2->P(2) child3->P(3) parent0->S(2,0) parent1->S(2,1)",
		"S(1,1): child0->P(4) child1->P(5) child2->P(6) child3->P(7) parent0->S(2,1) parent1->S(2,0)",
		"S(1,2): child0->P(8) child1->P(9) child2->P(10) child3->P(11) parent0->S(2,0) parent1->S(2,1)",
		"S(1,3): child0->P(12) child1->P(13) child2->P(14) child3->P(15) parent0->S(2,1) parent1->S(2,0)",
	}
	for _, line := range want {
		if !strings.Contains(desc, line) {
			t.Errorf("wiring missing %q in:\n%s", line, desc)
		}
	}
}

func TestFatTreeRoutesReachDestination(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		ft := MustFatTree(n)
		rng := traffic.NewRNG(9)
		for trial := 0; trial < 300; trial++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if src == dst {
				continue
			}
			// All adaptive choices must reach dst on a shortest path.
			for name, pick := range map[string]func(lo, hi ChannelID) ChannelID{
				"first": first,
				"last":  last,
				"rand": func(lo, hi ChannelID) ChannelID {
					return lo + ChannelID(rng.Intn(int(hi-lo)))
				},
			} {
				path := walk(t, ft, src, dst, pick)
				if len(path) != ft.PathLen(src, dst) {
					t.Fatalf("N=%d %s: |path(%d->%d)| = %d, want %d",
						n, name, src, dst, len(path), ft.PathLen(src, dst))
				}
			}
		}
	}
}

func TestFatTreePathLenAgainstDefinition(t *testing.T) {
	ft := MustFatTree(64)
	// LCA level by scanning blocks directly.
	for src := 0; src < 64; src++ {
		for dst := 0; dst < 64; dst++ {
			got := ft.PathLen(src, dst)
			if src == dst {
				if got != 0 {
					t.Fatalf("PathLen(%d,%d) = %d, want 0", src, dst, got)
				}
				continue
			}
			l := 1
			for src>>(2*l) != dst>>(2*l) {
				l++
			}
			if got != 2*l {
				t.Fatalf("PathLen(%d,%d) = %d, want %d", src, dst, got, 2*l)
			}
		}
	}
}

func TestFatTreeAvgDistanceMatchesEnumeration(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		ft := MustFatTree(n)
		var sum float64
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					sum += float64(ft.PathLen(src, dst))
				}
			}
		}
		want := sum / float64(n*(n-1))
		if got := ft.AvgDistance(); math.Abs(got-want) > 1e-9 {
			t.Errorf("N=%d: AvgDistance = %v, enumeration gives %v", n, got, want)
		}
	}
}

func TestFatTreeGroups(t *testing.T) {
	ft := MustFatTree(64)
	tab := ft.Tables()
	pairCount := 0
	for g := GroupID(0); int(g) < ft.NumChannels(); g++ {
		if tab.Lead[g] != 0 {
			continue // groups are named by their first channel
		}
		switch lo, hi := tab.Group(g); hi - lo {
		case 1:
			if k := tab.Kind[lo]; k == KindUp {
				t.Errorf("up channel %d in singleton group", lo)
			}
		case 2:
			pairCount++
			for ch := lo; ch < hi; ch++ {
				if k := tab.Kind[ch]; k != KindUp {
					t.Errorf("group %d: non-up channel %d (%v) in a pair", g, ch, k)
				}
				if lead := ChannelID(tab.Lead[ch]); ch-lead != g {
					t.Errorf("channel %d leads by %d, in group %d", ch, lead, g)
				}
			}
		default:
			t.Errorf("group %d has %d members", g, hi-lo)
		}
	}
	// One up-pair per switch below the top level: N/2^(l+1) at each of
	// levels 1..n-1.
	want := 0
	for l := 1; l < ft.Levels(); l++ {
		want += 64 / (2 << l)
	}
	if pairCount != want {
		t.Errorf("up-link pairs = %d, want %d", pairCount, want)
	}
}

// §3.2: 4^n/2^l channels lead up from level l to level l+1, for
// 1 <= l < n, and none leave the top level.
func TestFatTreeUpLinksBetween(t *testing.T) {
	ft := MustFatTree(1024)
	counts := map[int]int{}
	for ch, k := range ft.Tables().Kind {
		if k == KindUp {
			l, _, ok := ft.SwitchOf(ChannelID(ch))
			if !ok {
				t.Fatalf("up channel %d leads to a PE", ch)
			}
			counts[l-1]++
		}
	}
	for l := 0; l <= ft.Levels(); l++ {
		want := 1024 >> l
		if l < 1 || l == ft.Levels() {
			want = 0
		}
		if counts[l] != want {
			t.Errorf("up channels from level %d: %d, want %d", l, counts[l], want)
		}
	}
}

func TestFatTreeInjectionEjection(t *testing.T) {
	tab := MustFatTree(16).Tables()
	for p := 0; p < 16; p++ {
		inj, ej := tab.Injection(p), tab.Ejection(p)
		if inj != ChannelID(2*p) || ej != ChannelID(2*p+1) {
			t.Errorf("processor %d's channels are %d and %d, want %d and %d", p, inj, ej, 2*p, 2*p+1)
		}
		if tab.Kind[inj] != KindInjection || tab.Kind[ej] != KindEjection {
			t.Errorf("processor %d's channels have kinds %v and %v", p, tab.Kind[inj], tab.Kind[ej])
		}
	}
	count := map[ChannelKind]int{}
	for _, k := range tab.Kind {
		count[k]++
	}
	if count[KindInjection] != 16 || count[KindEjection] != 16 {
		t.Errorf("%d injection and %d ejection channels, want 16 each", count[KindInjection], count[KindEjection])
	}
}

func TestFatTreeNextGroupPanics(t *testing.T) {
	ft := MustFatTree(16)
	defer func() {
		if recover() == nil {
			t.Error("NextGroup on an ejection channel should panic")
		}
	}()
	ft.NextGroup(ft.Tables().Ejection(3), 5)
}

func TestFatTreeUpPathNeverDescendsEarly(t *testing.T) {
	// Property: on any walk, once the worm starts descending it never goes
	// up again (shortest-path routing in a tree).
	ft := MustFatTree(256)
	rng := traffic.NewRNG(17)
	f := func(sRaw, dRaw uint16) bool {
		src := int(sRaw) % 256
		dst := int(dRaw) % 256
		if src == dst {
			return true
		}
		path := walk(t, ft, src, dst, func(lo, hi ChannelID) ChannelID {
			return lo + ChannelID(rng.Intn(int(hi-lo)))
		})
		descending := false
		for _, ch := range path[1:] { // skip injection
			switch ft.Tables().Kind[ch] {
			case KindDown, KindEjection:
				descending = true
			case KindUp:
				if descending {
					return false
				}
			}
		}
		return descending
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFatTreeKindString(t *testing.T) {
	for k, want := range map[ChannelKind]string{
		KindInjection: "inj", KindEjection: "ej", KindUp: "up",
		KindDown: "down", KindLink: "link", ChannelKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d String = %q, want %q", k, got, want)
		}
	}
}

func TestFatTreeDescribeMentionsAllSwitches(t *testing.T) {
	ft := MustFatTree(64)
	desc := ft.Describe()
	for l := 1; l <= ft.Levels(); l++ {
		for a := 0; a < 64/(2<<l); a++ {
			tag := "S(" + itoa(l) + "," + itoa(a) + "):"
			if !strings.Contains(desc, tag) {
				t.Errorf("Describe missing %s", tag)
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
