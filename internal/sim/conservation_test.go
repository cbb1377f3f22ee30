package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/topology"
)

// symmetryZ is how many standard errors a channel's busy fraction may lie
// from its class mean before the classes are told apart. Under the
// symmetry law the deviations are about normal with the pooled error, so
// over the ≤ 64 channels of a bft-64 class the largest exceeds 5 with
// probability about 4e-5.
const symmetryZ = 5

// TestChannelClassSymmetry is conservation law 5 (symmetry): under
// uniform traffic every channel of one class of the fat-tree — a channel
// kind (injection, ejection, up, down) into one switch level, the paper's
// channel classes (a kind alone mixes levels whose loads differ by
// design) — carries the same load, whichever up-link policy picks the
// twin, so the simulated busy fractions of a class cannot be told apart. Each channel's busy
// fraction is averaged over independent replicas; its distance from the
// class mean is measured in standard errors pooled over the class (every
// channel of a symmetric class has the same variance), and none may
// exceed symmetryZ. An arbitration that favours the lower channel ID of
// an up-link pair loads parent0 links above parent1 links and fails it.
func TestChannelClassSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulations skipped in -short mode")
	}
	const (
		numProc  = 64
		flits    = 16
		replicas = 8
	)
	model := analytic.MustFatTreeModel(numProc, flits, core.Options{})
	sat, err := model.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	net := topology.MustFatTree(numProc)
	class := func(ch topology.ChannelID) string {
		level, _, _ := net.SwitchOf(ch)
		return fmt.Sprintf("%s@%d", net.Kind(ch), level)
	}
	for _, policy := range []UpLinkPolicy{PairQueue, RandomFixed} {
		t.Run(policy.String(), func(t *testing.T) {
			nCh := net.NumChannels()
			sum, sumSq := make([]float64, nCh), make([]float64, nCh)
			for r := 0; r < replicas; r++ {
				cfg := Config{
					Net: net, MsgFlits: flits, Policy: policy, Seed: uint64(101 + r),
					WarmupCycles: 4000, MeasureCycles: 20000,
				}.FlitLoad(0.6 * sat)
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for ch, b := range res.ChannelBusy {
					sum[ch] += b
					sumSq[ch] += b * b
				}
			}
			type stats struct {
				channels     []int
				mean, varSum float64
			}
			classes := map[string]*stats{}
			for ch := 0; ch < nCh; ch++ {
				name := class(topology.ChannelID(ch))
				st := classes[name]
				if st == nil {
					st = &stats{}
					classes[name] = st
				}
				st.channels = append(st.channels, ch)
				mean := sum[ch] / replicas
				st.mean += mean
				st.varSum += (sumSq[ch] - replicas*mean*mean) / (replicas - 1)
			}
			names := make([]string, 0, len(classes))
			for name := range classes {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				st := classes[name]
				n := float64(len(st.channels))
				st.mean /= n
				se := math.Sqrt(st.varSum / n / replicas) // pooled error of a channel's mean
				worst, at := 0.0, -1
				for _, ch := range st.channels {
					if z := math.Abs(sum[ch]/replicas-st.mean) / se; z > worst {
						worst, at = z, ch
					}
				}
				t.Logf("%-12s %2d channels, busy %.4f, pooled se %.5f, largest deviation %.2f se", name, len(st.channels), st.mean, se, worst)
				if st.mean <= 0 || !(worst <= symmetryZ) {
					t.Errorf("%s: channel %d's busy fraction %.4f lies %.1f standard errors (%.5f) from the class mean %.4f, more than %d",
						name, at, sum[at]/replicas, worst, se, st.mean, symmetryZ)
				}
			}
		})
	}
}
