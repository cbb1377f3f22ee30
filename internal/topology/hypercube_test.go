package topology

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/traffic"
)

func TestHypercubeSizes(t *testing.T) {
	for dims := 1; dims <= 8; dims++ {
		hc := MustHypercube(dims)
		n := 1 << dims
		if hc.NumProcessors() != n {
			t.Errorf("dims=%d: NumProcessors = %d, want %d", dims, hc.NumProcessors(), n)
		}
		// inj + ej + dims links per node.
		if want := n * (2 + dims); hc.NumChannels() != want {
			t.Errorf("dims=%d: channels = %d, want %d", dims, hc.NumChannels(), want)
		}
		if stride := hc.Tables().Stride; stride != int32(2+dims) {
			t.Errorf("dims=%d: stride = %d, want %d", dims, stride, 2+dims)
		}
	}
}

func TestHypercubeRejectsBadDims(t *testing.T) {
	for _, d := range []int{0, -1, 21, 100} {
		if _, err := NewHypercube(d); err == nil {
			t.Errorf("NewHypercube(%d) should fail", d)
		}
	}
}

func TestHypercubeAllGroupsSingleton(t *testing.T) {
	tab := MustHypercube(6).Tables()
	for ch, lead := range tab.Lead {
		if lead != 0 {
			t.Errorf("channel %d leads its group by %d", ch, lead)
		}
		if lo, hi := tab.Group(GroupID(ch)); lo != GroupID(ch) || hi-lo != 1 {
			t.Errorf("group %d is [%d, %d)", ch, lo, hi)
		}
	}
}

func TestHypercubeRoutesFollowECube(t *testing.T) {
	hc := MustHypercube(6)
	rng := traffic.NewRNG(23)
	for trial := 0; trial < 500; trial++ {
		src := rng.Intn(64)
		dst := rng.Intn(64)
		if src == dst {
			continue
		}
		path := walk(t, hc, src, dst, first)
		if len(path) != hc.PathLen(src, dst) {
			t.Fatalf("|path(%d->%d)| = %d, want %d", src, dst, len(path), hc.PathLen(src, dst))
		}
		// Dimension order: link channels must correct ascending bits.
		lastDim := -1
		for _, ch := range path {
			if hc.Tables().Kind[ch] != KindLink {
				continue
			}
			// Recover the dimension from the endpoints: channel v->v^2^d.
			// The walk visits nodes src, ..., dst; consecutive link dims
			// must increase.
			dim := dimOf(hc, ch)
			if dim <= lastDim {
				t.Fatalf("e-cube violation on %d->%d: dim %d after %d", src, dst, dim, lastDim)
			}
			lastDim = dim
		}
	}
}

// dimOf recovers the dimension of a link channel from the construction
// layout: per node the channels are [inj, ej, link0..link_{d-1}].
func dimOf(hc *Hypercube, ch ChannelID) int {
	per := 2 + bits.TrailingZeros(uint(hc.NumProcessors()))
	return int(ch)%per - 2
}

func TestHypercubePathLen(t *testing.T) {
	hc := MustHypercube(5)
	if hc.PathLen(0, 0) != 0 {
		t.Error("PathLen to self should be 0")
	}
	for src := 0; src < 32; src++ {
		for dst := 0; dst < 32; dst++ {
			if src == dst {
				continue
			}
			want := bits.OnesCount(uint(src^dst)) + 2
			if got := hc.PathLen(src, dst); got != want {
				t.Fatalf("PathLen(%d,%d) = %d, want %d", src, dst, got, want)
			}
		}
	}
}

func TestHypercubeAvgDistanceMatchesEnumeration(t *testing.T) {
	for _, dims := range []int{2, 4, 6} {
		hc := MustHypercube(dims)
		n := 1 << dims
		var sum float64
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					sum += float64(hc.PathLen(src, dst))
				}
			}
		}
		want := sum / float64(n*(n-1))
		if got := hc.AvgDistance(); math.Abs(got-want) > 1e-9 {
			t.Errorf("dims=%d: AvgDistance = %v, enumeration gives %v", dims, got, want)
		}
	}
}

func TestHypercubeEjection(t *testing.T) {
	hc := MustHypercube(4)
	tab := hc.Tables()
	for p := 0; p < hc.NumProcessors(); p++ {
		inj := tab.Injection(p)
		if tab.Kind[inj] != KindInjection {
			t.Errorf("kind(inj) = %v", tab.Kind[inj])
		}
		// Self-delivery: inject at p, next hop should eject directly.
		if g := hc.NextGroup(inj, p); g != tab.Ejection(p) {
			t.Errorf("node %d's own worm goes from injection to group %d, want its ejection channel %d",
				p, g, tab.Ejection(p))
		}
	}
}

func TestHypercubeNextGroupPanicsOnEjection(t *testing.T) {
	hc := MustHypercube(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	hc.NextGroup(hc.Tables().Ejection(2), 5)
}

func TestHypercubeName(t *testing.T) {
	if got := MustHypercube(8).Name(); got != "hcube-256" {
		t.Errorf("Name = %q", got)
	}
	if got := MustFatTree(64).Name(); got != "bft-64" {
		t.Errorf("Name = %q", got)
	}
}
