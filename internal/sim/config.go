// Package sim is a flit-level, cycle-driven wormhole-routing simulator
// implementing the paper's experimental assumptions (§2, §3.6): Poisson
// message arrivals at every PE, uniformly random destinations, fixed-length
// worms, FCFS contention resolution at switch outputs, adaptive selection
// between the two up-links of a fat-tree switch, unit-bandwidth channels
// (one flit per cycle), and immediate consumption at destinations.
//
// # Worm mechanics
//
// Channels have single-flit registers and unit bandwidth, so all flits of a
// worm move in lockstep behind the head: each cycle the worm either
// advances one channel (head acquires the next register, every flit shifts,
// a new flit enters at the source or the tail releases a channel) or stalls
// in place. A channel released in cycle t becomes available in cycle t+1 —
// a flit traverses at most one channel per cycle. The head flit's traversal
// of the ejection channel is its consumption; the remaining flits follow at
// one per cycle (the paper's no-sink-blocking assumption).
//
// Latency is measured in continuous time from the Poisson arrival epoch to
// the delivery of the worm's last flit. Messages become eligible for
// injection at the first cycle boundary after their arrival, so measured
// latencies carry a +0.5-cycle discretisation offset relative to the
// model's L = W̄ + x̄ + D̄ − 1; this is below the resolution of every
// comparison in the paper.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// UpLinkPolicy selects how worms contend for a multi-channel arbitration
// group (the fat-tree's up-link pair).
type UpLinkPolicy int

// Policies.
const (
	// PairQueue is the default and matches the paper's model: one FCFS
	// queue per pair; the worm at the head takes whichever link frees
	// first (random choice when both are free). This is the discipline an
	// M/G/2 queue describes.
	PairQueue UpLinkPolicy = iota
	// RandomFixed picks one of the two links uniformly at request time
	// and waits for that specific link even if the twin frees earlier —
	// the discipline two independent M/G/1 queues describe. Used by the
	// ablation experiments.
	RandomFixed
)

// String names the policy.
func (p UpLinkPolicy) String() string {
	switch p {
	case PairQueue:
		return "pairqueue"
	case RandomFixed:
		return "randomfixed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy name (as produced by String) back to its
// constant; the empty string means the default PairQueue. It is the
// decoder behind declarative configs such as sweep specs.
func ParsePolicy(name string) (UpLinkPolicy, error) {
	switch name {
	case "", PairQueue.String():
		return PairQueue, nil
	case RandomFixed.String():
		return RandomFixed, nil
	default:
		return 0, fmt.Errorf("sim: unknown policy %q (want %q or %q)",
			name, PairQueue, RandomFixed)
	}
}

// Config parameterises one simulation run.
type Config struct {
	// Net is the network to simulate.
	Net topology.Network
	// MsgFlits is the fixed worm length in flits (≥ 1).
	MsgFlits int
	// Lambda0 is the per-PE Poisson message rate (messages/cycle). Use
	// FlitLoad to derive it from a flits/cycle/PE figure.
	Lambda0 float64
	// Pattern picks destinations; nil means traffic.Uniform.
	Pattern traffic.Pattern
	// Seed drives all randomness; equal configs reproduce bit-identical
	// runs.
	Seed uint64
	// WarmupCycles are simulated before measurement starts.
	WarmupCycles int
	// MeasureCycles is the measurement window; messages arriving inside
	// it are tracked for latency.
	MeasureCycles int
	// DrainLimit bounds the extra cycles after the measurement window
	// while tracked messages finish; 0 means 2×(warmup+measure)+10000.
	DrainLimit int
	// Policy is the up-link arbitration policy.
	Policy UpLinkPolicy
	// HopWaitObserver, when non-nil, is called once per channel grant
	// inside the measurement window with the granted channel and the
	// number of cycles the worm waited in that channel's arbitration
	// queue. It is the instrumentation hook behind the per-channel-class
	// wait validation (experiment V1); the callback runs on the
	// simulation goroutine and must be cheap.
	HopWaitObserver func(ch topology.ChannelID, wait int64)
	// LatencyHistogram, when true, collects a latency histogram over
	// tracked messages and fills the Result's percentile fields. The
	// histogram spans [0, 50×(MsgFlits + diameter)) cycles.
	LatencyHistogram bool
	// Workload, when non-nil, selects the declarative workload — arrival
	// process, per-source rate mix, destination pattern — built by
	// internal/workload. nil (or the zero Spec) is the paper's steady
	// uniform Poisson workload and is bit-identical to a pre-workload
	// run. A non-default workload pattern takes precedence over Pattern.
	Workload *workload.Spec
	// Trace, when non-nil, replays a recorded arrival trace instead of
	// generating arrivals: every source's arrival times and destinations
	// come from the trace, while Seed still drives the arbitration
	// shuffle stream. With the recording run's windows, seed, policy and
	// topology (see workload.TraceHeader) the replayed Result is
	// bit-identical to the recorded one. Mutually exclusive with
	// Workload and with replicas > 1.
	Trace *workload.Trace
	// Recorder, when non-nil, observes every arrival the engine accepts
	// (source, pre-drawn destination, continuous arrival cycle) — the
	// hook bft sim -record uses to record traces. Recording does not perturb
	// the run: a recorded run's Result is bit-identical to an
	// unrecorded one. Incompatible with replicas > 1.
	Recorder func(src, dst int, cycle float64)
}

// FlitLoad sets Lambda0 from a load in flits/cycle/processor (the paper's
// Figure 3 x-axis) and returns the config for chaining.
func (c Config) FlitLoad(load float64) Config {
	c.Lambda0 = load / float64(c.MsgFlits)
	return c
}

// The run's fixed statistical and watchdog settings.
const (
	// batchSize is the batch length of the batch-means confidence
	// interval (Result.LatencyCI95) and of the termination rule.
	batchSize = 64
	// progressTimeout is the deadlock watchdog: a run aborts with
	// ErrDeadlock after this many consecutive cycles in which no worm
	// advances while work is pending.
	progressTimeout = 50000
	// histBins is the bin count of the latency histogram, and histReach
	// its upper bound in units of MsgFlits + diameter — far above any
	// stable-mode latency.
	histBins  = 1024
	histReach = 50
)

// ErrDeadlock is returned when the progress watchdog fires. The paper's
// networks are deadlock-free under shortest-path routing, so this always
// indicates a configuration or implementation fault rather than an
// expected outcome.
var ErrDeadlock = errors.New("sim: no progress; routing deadlock or watchdog misconfiguration")

// Validate reports the first problem that would make the run misbehave:
// a nil network, a non-positive message length, a negative/NaN/infinite
// rate, zero or negative windows, an unknown policy, a negative drain
// limit, or a workload or trace that does not fit. Run rejects invalid
// configs with the same errors; Validate lets callers fail before
// committing to a run.
func (c *Config) Validate() error {
	if c.Net == nil {
		return errors.New("sim: Config.Net is nil")
	}
	if c.MsgFlits < 1 {
		return fmt.Errorf("sim: MsgFlits = %d, must be >= 1", c.MsgFlits)
	}
	if c.Lambda0 < 0 || math.IsNaN(c.Lambda0) || math.IsInf(c.Lambda0, 0) {
		return fmt.Errorf("sim: Lambda0 = %v, must be finite and >= 0", c.Lambda0)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("sim: bad window (warmup=%d, measure=%d); warmup must be >= 0 and measure > 0", c.WarmupCycles, c.MeasureCycles)
	}
	if c.Policy != PairQueue && c.Policy != RandomFixed {
		return fmt.Errorf("sim: unknown policy %d", c.Policy)
	}
	if c.DrainLimit < 0 {
		return fmt.Errorf("sim: DrainLimit = %d, must be >= 0", c.DrainLimit)
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Trace != nil {
		if !c.Workload.IsDefault() {
			return errors.New("sim: Config.Trace and Config.Workload are mutually exclusive")
		}
		if got, want := c.Trace.Header.Size, c.Net.NumProcessors(); got != want {
			return fmt.Errorf("sim: trace recorded on %d processors, network has %d", got, want)
		}
		if c.Trace.Header.MsgFlits != c.MsgFlits {
			return fmt.Errorf("sim: trace recorded with %d-flit messages, config says %d",
				c.Trace.Header.MsgFlits, c.MsgFlits)
		}
	}
	return nil
}

func (c *Config) drainLimit() int {
	if c.DrainLimit > 0 {
		return c.DrainLimit
	}
	return 2*(c.WarmupCycles+c.MeasureCycles) + 10000
}

// diameter returns the longest shortest path from processor 0, in
// channels — the network's diameter on the vertex-symmetric topologies
// the repo builds.
func diameter(net topology.Network) int {
	diam := 0
	for p := 0; p < net.NumProcessors(); p++ {
		if d := net.PathLen(0, p); d > diam {
			diam = d
		}
	}
	return diam
}

func (c *Config) pattern() traffic.Pattern {
	if c.Pattern != nil {
		return c.Pattern
	}
	return traffic.Uniform{}
}
