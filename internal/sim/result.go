package sim

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Result summarises one simulation run.
type Result struct {
	// LatencyMean is the average latency of tracked messages (cycles,
	// arrival to last-flit delivery).
	LatencyMean float64
	// LatencyCI95 is the batch-means 95% confidence half-width (NaN with
	// too few batches).
	LatencyCI95 float64
	// LatencyMin and LatencyMax bound the tracked samples.
	LatencyMin, LatencyMax float64
	// WaitInjMean is the measured mean wait from arrival to injection
	// grant — the simulation counterpart of the model's W̄₀₁.
	WaitInjMean float64
	// ServiceInjMean is the measured mean injection-channel holding time
	// — the counterpart of the model's x̄₀₁.
	ServiceInjMean float64
	// ThroughputFlits is the delivered load in flits/cycle/processor
	// during the measurement window.
	ThroughputFlits float64
	// OfferedFlits is the configured offered load in
	// flits/cycle/processor.
	OfferedFlits float64
	// TrackedInjected and TrackedCompleted count messages arriving in the
	// measurement window and the subset that finished before the drain
	// limit.
	TrackedInjected, TrackedCompleted int
	// TotalCompleted counts all deliveries over the whole run.
	TotalCompleted int
	// Saturated reports that the run could not keep up with the offered
	// load (tracked messages left unfinished, or delivery visibly below
	// offer).
	Saturated bool
	// Cycles is the total number of simulated cycles.
	Cycles int
	// MeanSourceQueue is the time-average number of messages per PE
	// waiting at their source over the measurement window. A message
	// arriving at a counts from cycle ⌊a⌋+1, when it is taken in, through
	// the cycle of its injection grant, and no longer while it is being
	// injected. Under Poisson arrivals Little's law makes it
	// λ₀·(WaitInjMean + ½).
	MeanSourceQueue float64
	// LatencyP50, LatencyP95 and LatencyP99 are latency percentiles of
	// tracked messages, estimated from a histogram when
	// Config.LatencyHistogram is set (NaN otherwise). Tail percentiles
	// matter near saturation, where the mean hides the blocked worms.
	LatencyP50, LatencyP95, LatencyP99 float64
	// ChannelBusy is the per-channel busy fraction over the measurement
	// window, indexed by ChannelID: a fresh slice per Run, or nil when the
	// run was asked for none (WithoutChannelBusy).
	ChannelBusy []float64
	// Name echoes the network name.
	Name string
	// Replicas is the number of independent replicas merged into this
	// result (1 for a plain run).
	Replicas int
	// MeasuredCycles is the total number of measured cycles summed over
	// all replicas. It equals Config.MeasureCycles × Replicas unless the
	// termination rule stopped measurement early.
	MeasuredCycles int
	// EarlyStopped reports that the CI-width termination rule closed at
	// least one replica's measurement window before its configured length.
	EarlyStopped bool
	// Precision is the achieved relative precision: LatencyCI95 divided
	// by LatencyMean (NaN when either is unavailable).
	Precision float64
}

// tally is what a run accumulates over its measurement window: the
// latency, injection-wait and injection-service samples, the delivered
// flits, the source-queue integral and each channel's busy cycles. An
// engine fills one; replicas merge theirs.
type tally struct {
	lat            stats.BatchMeans
	latHist        *stats.Histogram
	wInj, xInj     stats.Stream
	flitsDelivered int64
	queueIntegral  float64
	busyInMeas     []int64
}

// merge pools o into t: sample streams and batch means exactly, the
// histogram bin by bin, counts and integrals summed.
func (t *tally) merge(o *tally) {
	t.lat.Merge(&o.lat)
	t.wInj.Merge(&o.wInj)
	t.xInj.Merge(&o.xInj)
	if t.latHist != nil && o.latHist != nil {
		t.latHist.Merge(o.latHist)
	}
	t.flitsDelivered += o.flitsDelivered
	t.queueIntegral += o.queueIntegral
	if t.busyInMeas != nil {
		for ch, b := range o.busyInMeas {
			t.busyInMeas[ch] += b
		}
	}
}

// fill sets res's measured fields — latency statistics and percentiles,
// injection wait and service, throughput, source queue, MeasuredCycles,
// Precision and, when busy is set, the channel busy fractions — from the
// tally over measured cycles on nProc processors.
func (t *tally) fill(res *Result, measured int64, nProc int, busy bool) {
	meas := float64(measured)
	res.LatencyMean = t.lat.Mean()
	res.LatencyCI95 = t.lat.HalfWidth(0.95)
	res.LatencyMin = t.lat.Min()
	res.LatencyMax = t.lat.Max()
	res.WaitInjMean = t.wInj.Mean()
	res.ServiceInjMean = t.xInj.Mean()
	res.ThroughputFlits = float64(t.flitsDelivered) / (meas * float64(nProc))
	res.MeanSourceQueue = t.queueIntegral / (meas * float64(nProc))
	if busy {
		res.ChannelBusy = make([]float64, len(t.busyInMeas))
		for ch, b := range t.busyInMeas {
			res.ChannelBusy[ch] = float64(b) / meas
		}
	}
	res.MeasuredCycles = int(measured)
	res.Precision = relPrecision(res.LatencyCI95, res.LatencyMean)
	res.LatencyP50, res.LatencyP95, res.LatencyP99 = math.NaN(), math.NaN(), math.NaN()
	if t.latHist != nil && t.latHist.Total() > 0 {
		res.LatencyP50 = t.latHist.Quantile(0.50)
		res.LatencyP95 = t.latHist.Quantile(0.95)
		res.LatencyP99 = t.latHist.Quantile(0.99)
	}
}

// relPrecision derives the relative CI half-width, guarding the degenerate
// cases (no samples, zero mean).
func relPrecision(ci, mean float64) float64 {
	if mean > 0 && !math.IsNaN(ci) {
		return ci / mean
	}
	return math.NaN()
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: load=%.5f flits/cyc/PE -> latency=%.2f±%.2f thru=%.5f (tracked %d/%d, saturated=%v)",
		r.Name, r.OfferedFlits, r.LatencyMean, r.LatencyCI95,
		r.ThroughputFlits, r.TrackedCompleted, r.TrackedInjected, r.Saturated)
}

// KindBusy is the mean busy fraction of one kind of channel.
type KindBusy struct {
	Kind topology.ChannelKind
	Busy float64
}

// BusyByKind aggregates ChannelBusy into mean busy fractions per channel
// kind, for comparison against the model's per-class utilizations: one
// entry per kind the network has, in ChannelKind order.
func (r *Result) BusyByKind(net topology.Network) []KindBusy {
	kind := net.Tables().Kind
	var sums []stats.Stream
	for ch, b := range r.ChannelBusy {
		k := int(kind[ch])
		if k >= len(sums) {
			sums = append(sums, make([]stats.Stream, k+1-len(sums))...)
		}
		sums[k].Add(b)
	}
	var out []KindBusy
	for k := range sums {
		if sums[k].N() > 0 {
			out = append(out, KindBusy{topology.ChannelKind(k), sums[k].Mean()})
		}
	}
	return out
}
