// Package bounds computes worst-case latency and backlog bounds for the
// paper's butterfly fat-tree, in the style of the network calculus of
// Cruz and its wormhole extensions (Farhi & Gaujal, arXiv:1007.4853;
// Giroudot & Mifdaoui, arXiv:1911.02430): every source is constrained by
// a (σ, ρ) arrival envelope, every switch stage offers a rate-latency
// service curve, and the per-message bound is the composition of per-hop
// worst-case delays along the longest deterministic route, with output
// burstiness propagated hop to hop.
//
// # What the bound is
//
// It is the network-calculus bound under those assumptions, not a
// guarantee on the traffic the model and the simulator run. Its service
// curves are built on the model's *mean* service times x̄, not on
// worst-case ones; and a Poisson source conforms to no finite envelope
// (its bursts are unbounded), so the σ = 1 message Envelope gives the
// paper's steady workload is a modelling choice. What the construction
// does promise is stated below: the bound dominates the model's mean at
// every stable point, and is finite exactly where the model is stable.
//
// The construction is deliberately conservative so that the bound
// *provably dominates* the analytic mean of package analytic at every
// stable operating point: each hop's delay term clears the aggregate
// burst σ̂ at the group's residual capacity m(1−ρ)/x̄,
//
//	D_h = x̄_h + σ̂_h·x̄_h / (m_h·(1−ρ_h)),
//
// while the model's mean per-hop wait is at most x̄_h/(m_h(1−ρ_h))
// (WaitMGm with Erlang-C ≤ 1 and the wormhole CV² ≤ 1); since σ̂_h ≥ 1
// message, every hop's bound exceeds its mean wait plus service, and
// the route sum exceeds the telescoped Eq. 25 mean. The same resolved
// channel graph supplies x̄ and ρ, so the bound is finite exactly where
// the model is stable: utilization past stability yields the unbounded
// verdict (core.IsUnstable agreement by construction).
//
// Backend exposes the calculus as the third eval.Evaluator ("bounds"):
// scenarios opt in via Scenario.WithBounds the way simulation opts in
// via WithSim, and results travel as Point.BoundMax / BoundUnbounded /
// BoundNA. Applicability mirrors ModelNA: only fat-tree topologies and
// workloads admitting a (σ, ρ) envelope (steady Poisson, MMPP on-off)
// get a bound; gamma/weibull shapes, traces, non-uniform mixes and
// patterns are marked BoundNA. See docs/bounds.md.
package bounds

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Per-layer counters, rendered on /metrics by the serve layer like the
// sim engine's (see internal/obs/metrics.go).
var (
	evalsTotal     = obs.NewCounter("bounds_evals_total")
	naTotal        = obs.NewCounter("bounds_na_total")
	unboundedTotal = obs.NewCounter("bounds_unbounded_total")
)

// Envelope derives the per-source (σ, ρ) arrival envelope — burst in
// messages, sustained rate lambda0 messages/cycle — for a workload, or
// reports the workload admits none. The matrix (see docs/bounds.md):
// steady Poisson injection bursts at most one message ahead of its
// rate; an MMPP on-off source additionally accumulates the rate excess
// of a mean-length ON burst; gamma/weibull shapes and replayed traces
// have no finite deterministic envelope, and non-uniform mixes or
// destination patterns break the symmetry the route composition needs.
func Envelope(w *workload.Spec, lambda0 float64) (burst float64, ok bool) {
	if w == nil || w.IsDefault() {
		return 1, true
	}
	if w.Trace != "" {
		return 0, false
	}
	switch w.Mix {
	case "", workload.MixUniform:
	default:
		return 0, false
	}
	switch w.Pattern {
	case "", workload.PatternUniform:
	default:
		return 0, false
	}
	switch w.Process {
	case "", workload.ProcessPoisson:
		return 1, true
	case workload.ProcessMMPP:
		// ON-rate λ₀/OnFrac for a mean burst of BurstCycles cycles puts
		// the source λ₀(1/OnFrac − 1)·BurstCycles messages ahead of its
		// sustained rate, plus the Poisson unit.
		return 1 + lambda0*(1/w.OnFrac-1)*w.BurstCycles, true
	default:
		return 0, false
	}
}

// HopBound is one hop of the worst-case route composition.
type HopBound struct {
	// Name is the channel class, e.g. "up<1,2>".
	Name string `json:"name"`
	// Servers is the group size m, Service the resolved mean service
	// time x̄ (cycles), Rho the per-server utilization — all from the
	// model's channel graph (analytic.Model.ChannelStats).
	Servers int     `json:"servers"`
	Service float64 `json:"service"`
	Rho     float64 `json:"rho"`
	// Sources is the number of distinct sources whose traffic can share
	// the group, Sigma the aggregate burst (messages) after upstream
	// inflation.
	Sources int     `json:"sources"`
	Sigma   float64 `json:"sigma"`
	// Delay is the hop's worst-case delay (cycles), Backlog its
	// worst-case buffer occupancy (flits).
	Delay   float64 `json:"delay"`
	Backlog float64 `json:"backlog"`
}

// Report is the full bound derivation for one operating point.
type Report struct {
	// Lambda0 is the per-processor message rate, Burst the per-source
	// envelope burst σ (messages).
	Lambda0 float64 `json:"lambda0"`
	Burst   float64 `json:"burst"`
	// Hops is the longest route's composition, injection to ejection.
	Hops []HopBound `json:"hops"`
	// Total is the end-to-end latency bound (cycles): the network-calculus
	// worst case under the (σ, ρ) envelope Burst, composed over the
	// model's mean service times — not a guarantee for Poisson traffic
	// (see the package comment).
	Total float64 `json:"total"`
	// MaxBacklog is the largest per-hop backlog bound (flits).
	MaxBacklog float64 `json:"max_backlog"`
}

// Compute composes the worst-case bound for a fat-tree model at
// per-processor message rate lambda0 with per-source burst (messages).
// It returns the model's own instability error (core.IsUnstable) when
// the rate is outside the stability region.
func Compute(m *analytic.FatTreeModel, lambda0, burst float64) (Report, error) {
	rep := Report{Lambda0: lambda0, Burst: burst, Hops: make([]HopBound, 0, 2*m.Levels())}
	if err := rep.compose(&m.Model, m.Levels()); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// compose fills in Total and MaxBacklog from Lambda0 and Burst, composing
// the longest route of m, the paper model of an n-level fat tree. It
// appends each hop's derivation to Hops unless Hops is nil, so a caller
// wanting only the totals allocates nothing.
func (r *Report) compose(m *analytic.Model, n int) error {
	if r.Burst < 1 || math.IsNaN(r.Burst) || math.IsInf(r.Burst, 0) {
		return fmt.Errorf("bounds: per-source burst must be >= 1 message, got %v", r.Burst)
	}
	var buf [64]analytic.ChannelStat // 2n rows, for every n a fat-tree model accepts
	stats, err := m.ChannelStats(buf[:0], r.Lambda0)
	if err != nil {
		return err
	}
	acc := 0.0 // accumulated delay bound along the route
	for h := 0; h < 2*n; h++ {
		st := stats[analytic.FatTreeRoute(n, h)]
		if st.Rho >= 1 || math.IsNaN(st.Rho) {
			return &core.UnstableError{Class: st.Name, Rho: st.Rho}
		}
		var sources int
		switch {
		case h == 0:
			// The injection channel carries its own source only.
			sources = 1
		case h < n:
			// 2^{l+1} processors route up through each level-l pair, l = h.
			sources = 1 << (h + 1)
		default:
			// Everything outside the 4^{l-1}-processor destination subtree
			// can converge on down<l,l-1>, l = 2n-h.
			sources = 1<<(2*n) - 1<<(2*(2*n-h-1))
		}
		groupRate := float64(st.Servers) * st.Rate // messages/cycle
		// Aggregate burst: each contributing source's envelope burst,
		// inflated by the burstiness its traffic accumulated clearing
		// the upstream hops (output envelope σ' = σ + ρ·D per hop).
		sigma := float64(sources)*r.Burst + groupRate*acc
		// Rate-latency service with one residual service time of
		// latency; the burst clears at the capacity the sustained rate
		// leaves free.
		delay := st.Service + sigma*st.Service/(float64(st.Servers)*(1-st.Rho))
		backlog := (sigma + groupRate*delay) * m.MsgFlits()
		if r.Hops != nil {
			r.Hops = append(r.Hops, HopBound{
				Name:    st.Name,
				Servers: st.Servers,
				Service: st.Service,
				Rho:     st.Rho,
				Sources: sources,
				Sigma:   sigma,
				Delay:   delay,
				Backlog: backlog,
			})
		}
		acc += delay
		if backlog > r.MaxBacklog {
			r.MaxBacklog = backlog
		}
	}
	r.Total = acc
	return nil
}

// Backend answers scenarios with the worst-case bound calculus: the
// third Evaluator next to the analytic model and the simulator. It keeps
// no models of its own: it composes over the paper model the
// AnalyticBackend of the same stack memoizes, and resolves fractional
// load points through it, so bounds are probed at identical absolute
// loads. Scenarios with WithBounds unset are answered with an empty
// Point. Safe for concurrent use.
type Backend struct {
	ab *eval.AnalyticBackend
}

// New returns a backend reading its models and load anchors from ab.
func New(ab *eval.AnalyticBackend) *Backend { return &Backend{ab: ab} }

// Name implements Evaluator.
func (b *Backend) Name() string { return "bounds" }

// EvaluateCurve implements eval.CurveEvaluator: a curve that did not opt
// in (WithBounds unset) is answered at once, with nothing to merge; a
// bounded one is a run of Evaluate calls.
func (b *Backend) EvaluateCurve(ctx context.Context, cells eval.Cells) (int, error) {
	if sc, _ := cells.Cell(0); !sc.WithBounds {
		return cells.Len(), nil
	}
	return eval.EvaluateEach(ctx, b, cells)
}

// Evaluate implements Evaluator: the network-calculus latency bound at
// the scenario's operating point (under the workload's (σ, ρ) envelope,
// on the model's mean service times; see the package comment), +Inf
// (BoundUnbounded) past stability, BoundNA where the calculus does not
// apply.
func (b *Backend) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, error) {
	if !sc.WithBounds {
		return eval.NewPoint(), nil
	}
	if err := ctx.Err(); err != nil {
		return eval.Point{}, err
	}
	_, span := obs.StartSpanFor(ctx, "bounds.eval", sc)
	evalsTotal.Add(1)
	pt := eval.NewPoint()
	load, err := b.ab.ResolveLoad(sc)
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return eval.Point{}, err
	}
	pt.LoadFlits = load
	lambda0 := load / float64(sc.MsgFlits)
	env, ok := Envelope(sc.Workload, lambda0)
	if sc.Topology.Family != eval.FamilyBFT || !ok {
		pt.BoundNA = true
		naTotal.Add(1)
		span.End(obs.String("outcome", "na"))
		return pt, nil
	}
	m, err := b.ab.PaperModel(sc.Topology, sc.MsgFlits)
	if err != nil {
		span.End(obs.String("outcome", "error"))
		return eval.Point{}, err
	}
	levels := bits.TrailingZeros(uint(sc.Topology.Size)) / 2 // log4 N: the model exists, so N is a power of four
	rep := Report{Lambda0: lambda0, Burst: env}
	switch err := rep.compose(m, levels); {
	case err == nil:
		pt.BoundMax = rep.Total
		span.End(obs.String("outcome", "bounded"), obs.Float("bound", rep.Total))
	case core.IsUnstable(err):
		pt.BoundMax = math.Inf(1)
		pt.BoundUnbounded = true
		unboundedTotal.Add(1)
		span.End(obs.String("outcome", "unbounded"))
	default:
		span.End(obs.String("outcome", "error"))
		return eval.Point{}, err
	}
	return pt, nil
}
