package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// truthHoldExtra is what an injection or link channel holds a worm beyond
// its s flits: a channel whose tail leaves in cycle t is freed after that
// cycle's grants and is granted again at t+1 at the earliest, so
// back-to-back worms take s+1 cycles each. An ejection channel holds a
// worm s cycles. A simulator that frees a channel in the cycle its tail
// leaves sets this to 0.
const truthHoldExtra = 1

// truthLatency is the exact mean latency of a truth cell: a network and a
// pattern in which every channel on a source's path carries only that
// source's worms, so each source is one discrete-time queue with Poisson
// arrivals at λ₀ = load/s per cycle and a deterministic hold of h cycles:
//
//	L = s + D − 1 + ½ + h·ρ/(2(1 − ρ)),  ρ = λ₀·h.
//
// The unfinished work at a cycle boundary follows R' = max(R + h·A − 1, 0)
// with A ~ Poisson(λ₀). An arrival waits ½ cycle on average for the
// boundary, then R, then ρ/2 for the earlier arrivals of its cycle, and
// the stationary E[R] is hρ/(2(1 − ρ)) − ρ/2. The path itself takes
// s + D − 1 cycles from the head's grant to the tail's delivery.
func truthLatency(s, D, h int, load float64) float64 {
	rho := load / float64(s) * float64(h)
	return float64(s+D-1) + 0.5 + float64(h)*rho/(2*(1-rho))
}

// TestTruthCells holds the simulator to truthLatency on the cells the
// repo's own surface offers, where no two sources share a channel:
//   - the 1-cube (2 processors, D = 3) under uniform traffic;
//   - the 4-cube under bit-complement with e-cube routing (D = 6): the
//     link out of node u along dimension d carries only source
//     u ^ (2^d − 1)'s worms;
//   - bft-4 under bit-complement (D = 2).
//
// Each cell is eight replicas of a fixed window, and its tolerance is
// their pooled interval: the 99.5 % t interval of the replicas' means,
// which are independent. (A run's own batch-means interval, LatencyCI95,
// is too narrow on the 1-cube at load 0.8, ρ = 0.85, where 64-message
// batches are correlated.) On the same runs each channel kind's busy
// fraction must equal the realized message rate λ, delivered flits over
// s, times its hold, to within the worms the window's edges cut:
// s + truthHoldExtra for injection and link channels and s for ejection
// channels.
func TestTruthCells(t *testing.T) {
	const (
		warmup   = 5000
		replicas = 8
		seed     = 17
		busyTol  = 0.002 // relative
	)
	for _, c := range []struct {
		net     topology.Network
		pattern traffic.Pattern
		D       int
		s       int
		load    float64
		measure int
	}{
		{topology.MustHypercube(1), traffic.Uniform{}, 3, 16, 0.2, 200_000},
		{topology.MustHypercube(1), traffic.Uniform{}, 3, 16, 0.5, 200_000},
		{topology.MustHypercube(1), traffic.Uniform{}, 3, 16, 0.8, 400_000},
		{topology.MustHypercube(4), traffic.BitComplement{}, 6, 4, 0.5, 20_000},
		{topology.MustHypercube(4), traffic.BitComplement{}, 6, 16, 0.5, 40_000},
		{topology.MustFatTree(4), traffic.BitComplement{}, 2, 16, 0.5, 200_000},
	} {
		pattern := strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", c.pattern), "traffic."))
		name := fmt.Sprintf("%s/%s/s=%d/load=%v", c.net.Name(), pattern, c.s, c.load)
		t.Run(name, func(t *testing.T) {
			h := c.s + truthHoldExtra
			means := stats.NewBatchMeans(1)
			var busy, want [topology.KindLink + 1]float64 // summed over replicas
			for r := 0; r < replicas; r++ {
				cfg := Config{
					Net:           c.net,
					MsgFlits:      c.s,
					Pattern:       c.pattern,
					Seed:          ReplicaSeed(seed, r),
					WarmupCycles:  warmup,
					MeasureCycles: c.measure,
				}.FlitLoad(c.load)
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				means.Add(res.LatencyMean)
				lambda := res.ThroughputFlits / float64(c.s)
				for _, kb := range res.BusyByKind(c.net) {
					hold := h
					if kb.Kind == topology.KindEjection {
						hold = c.s
					}
					busy[kb.Kind] += kb.Busy
					want[kb.Kind] += lambda * float64(hold)
				}
			}
			for k := range busy {
				if math.Abs(busy[k]-want[k]) > busyTol*want[k] {
					t.Errorf("%v channels busy %.4f, λ times their hold %.4f (mean of %d replicas)",
						topology.ChannelKind(k), busy[k]/replicas, want[k]/replicas, replicas)
				}
			}
			law, hw := truthLatency(c.s, c.D, h, c.load), means.HalfWidth(0.995)
			if !(math.Abs(means.Mean()-law) <= hw) {
				t.Errorf("latency %.3f ± %.3f, the law (D = %d, h = %d) gives %.3f",
					means.Mean(), hw, c.D, h, law)
			}
		})
	}
}

// FuzzTruthCells is TestTruthCells' long form: it draws a truth cell —
// the n-cube, n in 1..6, under bit-complement with e-cube routing
// (D = n + 2), or bft-4 under bit-complement (D = 2), whichever dims
// picks modulo 7; s in [2, 64] and a load of at most 0.85·s/h, so that
// ρ = λ₀h ≤ 0.85 — and holds the mean latency of eight seeded replicas
// to truthLatency within the 99.5 % t interval of their means. A correct
// simulator misses one such interval in 200, and a fuzzer draws hundreds
// of cells, so a cell fails only when the law misses the intervals of
// three independent sets of replicas; a wrong hold moves the mean past
// every one.
//
// The windows are sized in the queue's relaxation time, τ ≈ h/(1 − √ρ)²
// cycles: a warmup of 5τ, and a measurement of 400τ spread over the
// network's independent sources, but at least 4000 messages; an input
// takes about 70 ms on average and under a second at worst.
func FuzzTruthCells(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(160), uint64(1))  // the 1-cube, s = 2, ρ ≈ 0.53
	f.Add(uint8(3), uint8(14), uint8(255), uint64(2)) // the 4-cube, s = 16, ρ = 0.85
	f.Add(uint8(5), uint8(62), uint8(96), uint64(3))  // the 6-cube, s = 64, ρ ≈ 0.32
	f.Fuzz(func(t *testing.T, dims, flits, rho uint8, seed uint64) {
		const (
			replicas = 8
			tries    = 3
			periods  = 400  // relaxation times per replica, over all sources
			messages = 4000 // per replica, at least
		)
		n, s := 1+int(dims)%7, 2+int(flits)%63
		h := s + truthHoldExtra
		ρ := 0.85 * float64(1+int(rho)) / 256
		load := ρ * float64(s) / float64(h)
		var net topology.Network
		D := n + 2
		if n == 7 {
			net, D = topology.MustFatTree(4), 2
		} else {
			net = topology.MustHypercube(n)
		}
		procs := float64(net.NumProcessors())
		tau := float64(h) / math.Pow(1-math.Sqrt(ρ), 2)
		measure := int(max(periods*tau, messages*float64(h)/ρ) / procs)
		law := truthLatency(s, D, h, load)
		var mean, hw float64
		for try := 0; try < tries; try++ {
			means := stats.NewBatchMeans(1)
			for r := 0; r < replicas; r++ {
				res, err := Run(context.Background(), Config{
					Net:           net,
					MsgFlits:      s,
					Pattern:       traffic.BitComplement{},
					Seed:          ReplicaSeed(seed, try*replicas+r),
					WarmupCycles:  int(5 * tau),
					MeasureCycles: measure,
				}.FlitLoad(load))
				if err != nil {
					t.Fatal(err)
				}
				means.Add(res.LatencyMean)
			}
			if mean, hw = means.Mean(), means.HalfWidth(0.995); math.Abs(mean-law) <= hw {
				return
			}
		}
		t.Errorf("%s, s = %d, load %.4g (ρ = %.3f): latency %.3f ± %.3f on the last of %d sets of replicas, the law (D = %d, h = %d) gives %.3f",
			net.Name(), s, load, ρ, mean, hw, tries, D, h, law)
	})
}
