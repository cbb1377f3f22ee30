package sim

import (
	"fmt"
	"math"
)

// Termination is the CI-width early-stopping rule: once at least
// termMinBatches latency batches have completed and the 95% batch-means
// confidence interval is within RelHalfWidth of the running mean, the
// measurement window closes at the end of the current cycle and the run
// proceeds straight to draining. A zero RelHalfWidth disables the rule,
// reproducing the fixed-cycle run bit-for-bit.
type Termination struct {
	// RelHalfWidth is the target confidence half-width as a fraction of
	// the latency mean (0.05 = ±5%). <= 0 disables early stopping.
	RelHalfWidth float64
}

const (
	// termConfidence is the rule's CI level.
	termConfidence = 0.95
	// termMinBatches is the number of completed latency batches before
	// the rule may fire.
	termMinBatches = 10
	// termCheckEvery is the cycle stride between rule evaluations. The
	// rule is cheap but not free (a t-quantile lookup and a variance
	// read), so it is not evaluated every cycle.
	termCheckEvery = 256
)

// DefaultTermination is the precision used by the fleet when a caller asks
// for "default precision": a 95% CI within ±5% of the mean.
var DefaultTermination = Termination{RelHalfWidth: 0.05}

// Enabled reports whether the rule is active.
func (t Termination) Enabled() bool { return t.RelHalfWidth > 0 }

func (t Termination) validate() error {
	if math.IsNaN(t.RelHalfWidth) || math.IsInf(t.RelHalfWidth, 0) || t.RelHalfWidth < 0 {
		return fmt.Errorf("sim: Termination.RelHalfWidth = %v, must be finite and >= 0", t.RelHalfWidth)
	}
	return nil
}

// Option configures a Run beyond its Config, in the same functional-option
// style as sweep.NewRunner. Options cover the statistical machinery layered
// on top of the deterministic core, replica fan-out and early stopping, and
// what the Result carries.
// An option maps the options so far to the next, by value, so a Run's
// options stay on its stack.
type Option func(runOptions) runOptions

type runOptions struct {
	replicas int
	term     Termination
	noBusy   bool // WithoutChannelBusy
}

// WithReplicas runs n independent replicas of the simulation concurrently
// (seeds derived by ReplicaSeed) and merges them by pooled batch means.
// n <= 1 means a single replica, which is bit-identical to not passing the
// option at all.
func WithReplicas(n int) Option {
	return func(o runOptions) runOptions { o.replicas = n; return o }
}

// WithTermination enables CI-width early stopping. Pass DefaultTermination
// for the fleet's default precision, or a zero Termination to explicitly
// disable the rule.
func WithTermination(t Termination) Option {
	return func(o runOptions) runOptions { o.term = t; return o }
}

// WithoutChannelBusy leaves Result.ChannelBusy nil, for a caller that
// reads only the Result's scalars: the run then builds no per-channel
// column (a float per channel, 32 KB on bft-1024), and a replicated run
// merges none. Every other field is bit-identical to a run without the
// option. A caller that also keeps the Result local — it does not return
// it or store it past the call — holds it on its own stack, since Run
// inlines into it, so a single-replica run on a parked engine allocates
// nothing.
func WithoutChannelBusy() Option {
	return func(o runOptions) runOptions { o.noBusy = true; return o }
}

func buildOptions(opts []Option) (runOptions, error) {
	var o runOptions
	for _, opt := range opts {
		o = opt(o)
	}
	if o.replicas < 0 {
		return o, fmt.Errorf("sim: WithReplicas(%d), must be >= 0", o.replicas)
	}
	if o.replicas == 0 {
		o.replicas = 1
	}
	if err := o.term.validate(); err != nil {
		return o, err
	}
	return o, nil
}
