package stats

import "math"

// BatchMeans implements the method of non-overlapping batch means for
// steady-state simulation output analysis. Correlated per-message
// observations are grouped into fixed-size batches; batch averages are
// approximately independent, so a t-based confidence interval on them is
// (asymptotically) valid.
type BatchMeans struct {
	batchSize int64
	cur       Stream
	batches   Stream
	all       Stream
}

// NewBatchMeans creates an accumulator with the given batch size. Sizes
// below 1 are treated as 1.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize < 1 {
		batchSize = 1
	}
	return &BatchMeans{batchSize: int64(batchSize)}
}

// Add records one observation.
func (b *BatchMeans) Add(x float64) {
	b.all.Add(x)
	b.cur.Add(x)
	if b.cur.N() >= b.batchSize {
		b.batches.Add(b.cur.Mean())
		b.cur = Stream{}
	}
}

// Merge folds other into b as if other's observations had been Added to a
// parallel accumulator of the same batch size: the grand stream and the
// completed-batch stream are both pooled, so HalfWidth afterwards is the
// pooled-batch-means confidence interval over all replicas. Each
// accumulator's trailing partial batch stays out of the batch statistics
// (exactly as it would in a single run); the batch sizes must match or
// the pooled variance would mix scales.
func (b *BatchMeans) Merge(other *BatchMeans) {
	if other.batchSize != b.batchSize {
		panic("stats: merging BatchMeans with different batch sizes")
	}
	b.all.Merge(&other.all)
	b.batches.Merge(&other.batches)
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand sample mean over all observations.
func (b *BatchMeans) Mean() float64 { return b.all.Mean() }

// Min and Max return the smallest and largest observation, or NaN if
// there is none.
func (b *BatchMeans) Min() float64 { return b.all.Min() }
func (b *BatchMeans) Max() float64 { return b.all.Max() }

// HalfWidth returns the half-width of an approximate confidence interval on
// the steady-state mean at the given confidence level (e.g. 0.95), computed
// from the completed batches. Returns NaN if fewer than 2 batches have
// completed.
func (b *BatchMeans) HalfWidth(confidence float64) float64 {
	k := b.batches.N()
	if k < 2 {
		return math.NaN()
	}
	se := b.batches.StdDev() / math.Sqrt(float64(k))
	return tQuantile(confidence, int(k-1)) * se
}

// tQuantile returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom. Values for common confidence
// levels are tabulated; other levels fall back to the normal approximation.
func tQuantile(confidence float64, df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	var table []float64
	var z float64
	switch {
	case confidence >= 0.995:
		table = t995
		z = 2.807
	case confidence >= 0.99:
		table = t99
		z = 2.576
	case confidence >= 0.95:
		table = t95
		z = 1.960
	case confidence >= 0.90:
		table = t90
		z = 1.645
	default:
		table = t95
		z = 1.960
	}
	if df <= len(table) {
		return table[df-1]
	}
	return z
}

// Two-sided Student-t critical values for df = 1..30.
var (
	t90 = []float64{6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697}
	t95 = []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042}
	t99 = []float64{63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750}
	t995 = []float64{127.321, 14.089, 7.453, 5.598, 4.773, 4.317, 4.029, 3.833, 3.690, 3.581,
		3.497, 3.428, 3.372, 3.326, 3.286, 3.252, 3.222, 3.197, 3.174, 3.153,
		3.135, 3.119, 3.104, 3.091, 3.078, 3.067, 3.057, 3.047, 3.038, 3.030}
)
