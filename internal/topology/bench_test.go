package topology_test

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// BenchmarkNextGroup times one routing decision on bft-1024, called
// through the Network interface as the simulator calls it, over the hops
// real worms make: 1,024 worms under uniform traffic (the paper's, and
// sim-figure3's), each walked from its source's injection channel to its
// destination's ejection channel, taking either up-link of a pair at
// random as the simulator's free-channel pick does. Every (channel,
// destination) pair a worm asks NextGroup about is one entry of the
// fixed list, so the list weights injection channels, up-links and
// down-links as traffic does. One iteration routes the whole list; it
// reports the time per route.
func BenchmarkNextGroup(b *testing.B) {
	var net topology.Network = topology.MustFatTree(1024)
	hops := wormHops(b, net, 1024, traffic.NewRNG(56))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range hops {
			routeSink = net.NextGroup(h.ch, h.dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hops)), "ns/route")
}

var routeSink topology.GroupID

type hop struct {
	ch  topology.ChannelID
	dst int
}

// wormHops walks worms from uniform (source, destination) pairs through
// net and returns every hop at which one of them is routed. A worm takes
// PathLen − 1 routing decisions, one per channel but its last.
func wormHops(tb testing.TB, net topology.Network, worms int, rng *traffic.RNG) []hop {
	tab, n := net.Tables(), net.NumProcessors()
	var hops []hop
	for w := 0; w < worms; w++ {
		src := rng.Intn(n)
		dst := traffic.Uniform{}.Dest(src, n, rng)
		steps := 0
		for ch := tab.Injection(src); ch != tab.Ejection(dst); steps++ {
			if steps == net.PathLen(src, dst) {
				tb.Fatalf("worm %d→%d not delivered after %d hops", src, dst, steps)
			}
			hops = append(hops, hop{ch, dst})
			lo, hi := tab.Group(net.NextGroup(ch, dst))
			ch = lo + topology.ChannelID(rng.Intn(int(hi-lo)))
		}
		if steps != net.PathLen(src, dst)-1 {
			tb.Fatalf("worm %d→%d routed %d times, want PathLen − 1 = %d", src, dst, steps, net.PathLen(src, dst)-1)
		}
	}
	return hops
}
