package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The conservation laws hold in every simulator epoch: unlike the pinned
// digests, they say the engine is right, not merely unchanged, and they
// keep saying it when a deliberate change moves every digest.

// TestInvariantsUnderLoad is conservation law 1 (flits and messages are
// conserved): checkInvariants runs after every cycle of every pinned
// family that fits the test budget and panics unless each worm holds
// exactly as many channels as it has flits in flight (one more while
// draining), no channel is held twice, the busy flags are the held set
// and each group's free count is its idle members; and every arrival the
// sources hand the engine inside the window (seen by Config.Recorder) is
// a tracked message.
func TestInvariantsUnderLoad(t *testing.T) {
	const budget = 1e7 // channel-cycles checked per family
	for _, tc := range pinnedFamilies() {
		cycles := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles
		if float64(cycles)*float64(tc.cfg.Net.NumChannels()) > budget {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg, arrived := tc.cfg, 0
			cfg.Recorder = func(_, _ int, at float64) {
				if at >= float64(cfg.WarmupCycles) && at < float64(cycles) {
					arrived++
				}
			}
			e := mustEngine(t, cfg)
			e.debugChecks = true
			res, err := e.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.TrackedInjected != arrived {
				t.Errorf("%d arrivals inside the window, %d tracked", arrived, res.TrackedInjected)
			}
		})
	}
}

// Laws 2, 3 and 5 share one set of replicated runs: 16-flit worms on a
// 64-processor fat tree at 60 % of the model's saturation load.
const (
	lawProc     = 64
	lawFlits    = 16
	lawReplicas = 8
)

// lawRun is one replica of the shared runs: its Result and the grants
// each channel made inside the measurement window.
type lawRun struct {
	res    *Result
	grants []int64
}

var (
	lawMu   sync.Mutex
	lawRuns = map[UpLinkPolicy][]lawRun{}
)

// lawReplicaRuns returns the shared runs under policy, simulating them on
// first use, and the configuration of replica 0 (replica r is seeded
// 101 + r).
func lawReplicaRuns(t *testing.T, policy UpLinkPolicy) (Config, []lawRun) {
	t.Helper()
	sat, err := analytic.MustFatTreeModel(lawProc, lawFlits, core.Options{}).SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Net: topology.MustFatTree(lawProc), MsgFlits: lawFlits, Policy: policy, Seed: 101,
		WarmupCycles: 4000, MeasureCycles: 20000,
	}.FlitLoad(0.6 * sat)
	lawMu.Lock()
	defer lawMu.Unlock()
	if runs, ok := lawRuns[policy]; ok {
		return cfg, runs
	}
	runs := make([]lawRun, lawReplicas)
	for r := range runs {
		c := cfg
		c.Seed += uint64(r)
		grants := make([]int64, c.Net.NumChannels())
		c.HopWaitObserver = func(ch topology.ChannelID, _ int64) { grants[ch]++ }
		res, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = lawRun{res: res, grants: grants}
	}
	lawRuns[policy] = runs
	return cfg, runs
}

// TestTrafficEquations is conservation law 2: below saturation every
// fat-tree channel class carries the per-link message rate the model's
// traffic equations give it (ChannelStats' Rate, λ₀ times the class's
// share of the routes), under either up-link policy. The simulated rate
// of a class is its grants in the window, counted through
// Config.HopWaitObserver, per link and cycle; over the shared replicas
// its mean may lie at most symmetryZ across-replica standard errors from
// the model's. A route that turns a level too high or too low moves flow
// between classes and fails it, and so does a source that drops a
// visible share of its arrivals.
func TestTrafficEquations(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulations skipped in -short mode")
	}
	for _, policy := range []UpLinkPolicy{PairQueue, RandomFixed} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg, runs := lawReplicaRuns(t, policy)
			ft := cfg.Net.(*topology.FatTree)
			rows, err := analytic.MustFatTreeModel(lawProc, lawFlits, core.Options{}).ChannelStats(nil, cfg.Lambda0)
			if err != nil {
				t.Fatal(err)
			}
			classOf := make([]string, ft.NumChannels())
			links := map[string]float64{}
			for ch := range classOf {
				classOf[ch] = analytic.FatTreeClassOf(ft, topology.ChannelID(ch))
				links[classOf[ch]]++
			}
			for _, row := range rows {
				var rate stats.Stream
				for _, run := range runs {
					var n int64
					for ch, g := range run.grants {
						if classOf[ch] == row.Name {
							n += g
						}
					}
					rate.Add(float64(n) / links[row.Name] / float64(cfg.MeasureCycles))
				}
				se := rate.StdDev() / math.Sqrt(lawReplicas)
				z := math.Abs(rate.Mean()-row.Rate) / se
				t.Logf("%-10s %3.0f links, rate %.6f, model %.6f, %.2f se", row.Name, links[row.Name], rate.Mean(), row.Rate, z)
				if !(z <= symmetryZ) {
					t.Errorf("%s: simulated rate %.6f/link/cycle lies %.1f standard errors (%.6f) from the model's %.6f, more than %d",
						row.Name, rate.Mean(), z, se, row.Rate, symmetryZ)
				}
			}
		})
	}
}

// TestLittlesLawAtTheSource is conservation law 3 at the one queue whose
// both sides the Result reports. MeanSourceQueue counts a message arriving
// at a over cycles ⌊a⌋+1 through g, its injection grant: it is taken off
// the arrival calendar at the start of cycle ⌊a⌋+1, the queue is sampled
// after the arrivals phase and before the grants, and g is at least
// ⌊a⌋+1. That is g − ⌊a⌋ cycles, while WaitInjMean averages g − a; the
// difference is a's fractional part, uniform on [0, 1) for Poisson
// arrivals, so Little's law reads MeanSourceQueue = λ₀·(WaitInjMean + ½).
// Over the shared replicas the mean residual of that equation may lie at
// most symmetryZ standard errors from zero. Little's law per channel
// class waits for the per-class tap at grant and release that ROADMAP.md
// plans with the per-class detail level: the Result carries no per-class
// occupancy to check it against.
func TestLittlesLawAtTheSource(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulations skipped in -short mode")
	}
	for _, policy := range []UpLinkPolicy{PairQueue, RandomFixed} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg, runs := lawReplicaRuns(t, policy)
			var resid, queue stats.Stream
			for _, run := range runs {
				queue.Add(run.res.MeanSourceQueue)
				resid.Add(run.res.MeanSourceQueue - cfg.Lambda0*(run.res.WaitInjMean+0.5))
			}
			se := resid.StdDev() / math.Sqrt(lawReplicas)
			z := math.Abs(resid.Mean()) / se
			t.Logf("queue %.5f, residual %.6f, %.2f se", queue.Mean(), resid.Mean(), z)
			if !(z <= symmetryZ) {
				t.Errorf("MeanSourceQueue %.5f misses λ₀·(WaitInjMean + ½) by %.6f, %.1f standard errors (%.6f), more than %d",
					queue.Mean(), resid.Mean(), z, se, symmetryZ)
			}
		})
	}
}

// TestUnloadedLatencyMatchesTheory is conservation law 4 (zero-load
// exactness). A message alone in the network that arrives at a is
// granted the injection channel at cycle ⌊a⌋+1, moves its head over its
// D = PathLen channels one per cycle and delivers its s flits one per
// cycle from the ejection grant on, so its latency is exactly
// s + D − frac(a), its injection wait 1 − frac(a) and its injection
// channel is held for s cycles. Per path length the test replays a trace
// with one message from every processor, each alone in the network, and
// every sample must equal those closed forms — none may be lost.
func TestUnloadedLatencyMatchesTheory(t *testing.T) {
	for _, tc := range []struct {
		net   topology.Network
		flits int
	}{
		{topology.MustFatTree(256), 32},
		{topology.MustHypercube(6), 16},
		{topology.MustHypercube(6), 3}, // most paths are longer than the worm
	} {
		n := tc.net.NumProcessors()
		diam := diameter(tc.net)
		gap := 2 * (tc.flits + diam) // a message is done before the next arrives
		for d := 2; d <= diam; d++ {
			tr := &workload.Trace{Header: workload.TraceHeader{
				Version: workload.TraceVersion, Family: tc.net.Name(), Size: n, MsgFlits: tc.flits,
			}}
			for src := 0; src < n; src++ {
				for k := 1; k < n; k++ {
					if dst := (src + k) % n; tc.net.PathLen(src, dst) == d {
						tr.Events = append(tr.Events, workload.TraceEvent{
							Src: src, Dst: dst, MsgFlits: tc.flits,
							Cycle: float64(len(tr.Events)*gap) + 0.5,
						})
						break
					}
				}
			}
			if len(tr.Events) == 0 {
				continue // no path of this length
			}
			name := fmt.Sprintf("%s s=%d D=%d", tc.net.Name(), tc.flits, d)
			res, err := Run(context.Background(), Config{
				Net: tc.net, MsgFlits: tc.flits, Seed: 1, Trace: tr,
				MeasureCycles: (len(tr.Events) + 1) * gap,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := float64(tc.flits+d) - 0.5
			if res.TrackedInjected != len(tr.Events) || res.TrackedCompleted != len(tr.Events) ||
				res.LatencyMin != want || res.LatencyMax != want ||
				res.WaitInjMean != 0.5 || res.ServiceInjMean != float64(tc.flits) {
				t.Errorf("%s: %d messages: %d injected, %d completed, latency in [%v, %v], wait %v, injection service %v; want every latency %v, wait 0.5, service %d",
					name, len(tr.Events), res.TrackedInjected, res.TrackedCompleted,
					res.LatencyMin, res.LatencyMax, res.WaitInjMean, res.ServiceInjMean, want, tc.flits)
			}
		}
	}
}

// symmetryZ is how many standard errors a channel's busy fraction may lie
// from its class mean before the classes are told apart. Under the
// symmetry law the deviations are about normal with the pooled error, so
// over the ≤ 64 channels of a bft-64 class the largest exceeds 5 with
// probability about 4e-5. Laws 2 and 3 hold their across-replica means to
// the same bound.
const symmetryZ = 5

// TestChannelClassSymmetry is conservation law 5 (symmetry): under
// uniform traffic every channel of one class of the fat-tree — a channel
// kind (injection, ejection, up, down) into one switch level, the paper's
// channel classes (analytic.FatTreeClassOf; a kind alone mixes levels
// whose loads differ by design) — carries the same load, whichever
// up-link policy picks the twin, so the simulated busy fractions of a
// class cannot be told apart. Each channel's busy fraction is averaged
// over the shared replicas; its distance from the class mean is measured
// in standard errors pooled over the class (every channel of a symmetric
// class has the same variance), and none may exceed symmetryZ. An
// arbitration that favours the lower channel ID of an up-link pair loads
// parent0 links above parent1 links and fails it.
func TestChannelClassSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulations skipped in -short mode")
	}
	for _, policy := range []UpLinkPolicy{PairQueue, RandomFixed} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg, runs := lawReplicaRuns(t, policy)
			net := cfg.Net.(*topology.FatTree)
			nCh := net.NumChannels()
			sum, sumSq := make([]float64, nCh), make([]float64, nCh)
			for _, run := range runs {
				for ch, b := range run.res.ChannelBusy {
					sum[ch] += b
					sumSq[ch] += b * b
				}
			}
			type classAgg struct {
				channels     []int
				mean, varSum float64
			}
			classes := map[string]*classAgg{}
			for ch := 0; ch < nCh; ch++ {
				name := analytic.FatTreeClassOf(net, topology.ChannelID(ch))
				st := classes[name]
				if st == nil {
					st = &classAgg{}
					classes[name] = st
				}
				st.channels = append(st.channels, ch)
				mean := sum[ch] / lawReplicas
				st.mean += mean
				st.varSum += (sumSq[ch] - lawReplicas*mean*mean) / (lawReplicas - 1)
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
				se := math.Sqrt(st.varSum / n / lawReplicas) // pooled error of a channel's mean
				worst, at := 0.0, -1
				for _, ch := range st.channels {
					if z := math.Abs(sum[ch]/lawReplicas-st.mean) / se; z > worst {
						worst, at = z, ch
					}
				}
				t.Logf("%-12s %2d channels, busy %.4f, pooled se %.5f, largest deviation %.2f se", name, len(st.channels), st.mean, se, worst)
				if st.mean <= 0 || !(worst <= symmetryZ) {
					t.Errorf("%s: channel %d's busy fraction %.4f lies %.1f standard errors (%.5f) from the class mean %.4f, more than %d",
						name, at, sum[at]/lawReplicas, worst, se, st.mean, symmetryZ)
				}
			}
		})
	}
}
