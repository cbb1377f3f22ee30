// Package repro is a Go reproduction of
//
//	Ronald I. Greenberg and Lee Guan, "An Improved Analytical Model for
//	Wormhole Routed Networks with Application to Butterfly Fat-Trees",
//	Proc. 1997 International Conference on Parallel Processing (ICPP),
//	pp. 44–48, August 1997.
//
// It provides, stdlib-only:
//
//   - the paper's general analytical model for wormhole-routed networks
//     (multi-server M/G/m channel queues with a wormhole blocking
//     correction, resolved backwards from ejection to injection channels);
//   - its application to the butterfly fat-tree (closed-form Eq. 12–26)
//     and to binary hypercubes and k-ary n-cubes;
//   - a flit-level, cycle-driven wormhole simulator matching the paper's
//     experimental assumptions;
//   - the Evaluator backend API: the model and the simulator answer the
//     same question — the latency of a Scenario — behind one
//     context-aware interface (AnalyticBackend, SimBackend); and
//   - a declarative scenario-sweep engine on top of it, with streaming,
//     caching and cancellation (cmd/reproduce regenerates every figure
//     and table of the evaluation from it); and
//   - a sweep service: a persistent, content-addressed result store
//     (OpenStore), an HTTP serving front-end (ListenAndServe, cmd/sweepd)
//     streaming NDJSON cells over Runner.Stream, and a RemoteBackend that
//     fans grids out to a server fleet behind the same Evaluator
//     interface — it is the one fleet transport: every client below
//     sends its requests through its retry loop, status classification
//     and stream watchdog, configured by one eval.RemoteOption set (see
//     docs/serve.md); and
//   - a distributed sweep scheduler (NewDispatcher): grids partition
//     into contiguous ranges dispatched across the fleet over a batched
//     wire protocol, with cache-aware scheduling, work stealing and
//     shard failover (see docs/dispatch.md); and
//   - a capacity planner (Plan, PlanStream, cmd/plan, POST /v1/plan):
//     model-guided design-space optimization — coarse analytic prune,
//     bisection to the saturation knee per candidate, Pareto frontier
//     over (cost, latency, sustainable load), simulator certification
//     of the frontier only — answering "which network sustains this
//     load under this latency bound" without sweeping a grid (see
//     docs/plan.md); and
//   - a workload subsystem (WorkloadSpec, cmd/trace): declarative
//     bursty arrival processes (Gamma, Weibull, MMPP on-off),
//     per-source rate mixes, destination patterns (hotspot, locality,
//     bitcomplement, transpose), and deterministic NDJSON trace
//     record/replay, threaded through the simulator, sweeps and plans;
//     the default spec is bit-identical to the paper's steady uniform
//     Poisson workload (see docs/workload.md); and
//   - fleet-wide observability (NewTracer, WithTracing, cmd/obsreport):
//     span-style NDJSON traces with deterministic IDs propagated across
//     the sweep/dispatch/serve/sim layers over HTTP headers, engine and
//     store counters folded into /metrics, planner decision traces, and
//     structured request logging (see docs/observability.md); and
//   - a calibration observatory (internal/calib, cmd/calib):
//     model-vs-sim error maps mined from the result store or fed live by
//     sweeps, bucketed by region (topology, message length, policy,
//     load band) with per-region MAPE/bias/correlation, persisted next
//     to the store, served over /v1/calib and /metrics, and consulted
//     by the planner to trust-gate its certification sims (see
//     docs/calibration.md).
//
// This facade re-exports the main entry points; the implementation lives
// under internal/ (core, analytic, sim, topology, eval, sweep, …).
//
// # Quick start
//
//	model, _ := repro.NewFatTreeModel(1024, 16)
//	lat, _ := model.Latency(0.002)        // 0.002 messages/cycle/PE
//	sat, _ := model.SaturationLoad()      // flits/cycle/PE at saturation
//
//	ft, _ := repro.NewFatTree(1024)
//	res, _ := repro.Simulate(context.Background(), repro.SimConfig{
//	    Net: ft, MsgFlits: 16,
//	    WarmupCycles: 10000, MeasureCycles: 50000,
//	}.FlitLoad(0.03), repro.WithSimTermination(repro.DefaultSimTermination))
//	fmt.Println(lat.Total, sat, res.LatencyMean)
//
// # Sweeps and streaming
//
// Declarative grids run through the context-aware sweep API; cancelling
// the context aborts mid-simulation. Points can be consumed as they
// complete:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	spec, _ := repro.SweepBuiltin("figure3")
//	for pr := range repro.SweepStream(ctx, spec) {
//	    if pr.Err != nil { log.Fatal(pr.Err) }
//	    fmt.Println(pr.Row.Scenario.CurveKey(), pr.Row.Model, pr.Row.Sim)
//	}
package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Re-exported types. The aliases keep godoc for the sampled API in one
// place while the implementation stays in internal packages.
type (
	// ModelOptions toggles the model's ingredients for ablations; the
	// zero value is the paper's model.
	ModelOptions = core.Options

	// SimConfig parameterises a simulation run.
	SimConfig = sim.Config
	// SimResult is a simulation measurement.
	SimResult = sim.Result
	// UpLinkPolicy selects the simulator's up-link arbitration
	// discipline.
	UpLinkPolicy = sim.UpLinkPolicy

	// WorkloadSpec declares a simulator workload: arrival process,
	// per-source rate mix, destination pattern, or a recorded trace to
	// replay (see docs/workload.md). The zero value is the paper's
	// steady uniform Poisson workload, bit-identical to a run with no
	// workload at all. Set it on SimConfig.Workload, a sweep spec's
	// workloads axis, or a plan spec's workload field.
	WorkloadSpec = workload.Spec
	// WorkloadTrace is a recorded arrival trace: a header carrying the
	// full recording recipe plus every accepted arrival, replayable
	// bit-identically (see cmd/trace and docs/workload.md).
	WorkloadTrace = workload.Trace

	// Evaluator is the backend contract shared by the analytical model
	// and the simulator: Evaluate(ctx, Scenario) -> Point. Custom
	// backends plug into a SweepRunner via its Backends field.
	Evaluator = eval.Evaluator
	// Scenario is one fully determined evaluation question (topology,
	// message length, policy, variant, load).
	Scenario = eval.Scenario
	// Point is one evaluated scenario; backends merge their halves.
	Point = eval.Point
	// SweepTopology identifies one concrete network instance of a
	// scenario.
	SweepTopology = eval.Topology

	// SweepRunner executes sweep specs (see docs/sweep.md) on a bounded
	// worker pool against an optional SweepCacheStore, producing a
	// SweepResult.
	SweepRunner = sweep.Runner
	SweepResult = sweep.Result
	// SweepCacheStore is the result-cache contract a SweepRunner
	// consults; NewSweepCache and OpenStore both return one.
	SweepCacheStore = sweep.CacheStore
)

// Simulator policies.
const (
	// PairQueue is the paper's discipline: one FCFS queue per up-link
	// pair (M/G/2-like).
	PairQueue = sim.PairQueue
	// RandomFixed pins each worm to a random member link (2×M/G/1-like).
	RandomFixed = sim.RandomFixed
)

// NewFatTree builds a butterfly fat-tree with numProc processors (a power
// of four ≥ 4).
func NewFatTree(numProc int) (*topology.FatTree, error) { return topology.NewFatTree(numProc) }

// NewHypercube builds a binary hypercube with 2^dims processors.
func NewHypercube(dims int) (*topology.Hypercube, error) { return topology.NewHypercube(dims) }

// NewFatTreeModel creates the paper's fat-tree model (Eq. 12–26) for
// numProc processors and fixed messages of msgFlits flits.
func NewFatTreeModel(numProc int, msgFlits float64) (*analytic.FatTreeModel, error) {
	return analytic.NewFatTreeModel(numProc, msgFlits, core.Options{})
}

// NewFatTreeModelVariant creates a fat-tree model with ablation options.
func NewFatTreeModelVariant(numProc int, msgFlits float64, opt ModelOptions) (*analytic.FatTreeModel, error) {
	return analytic.NewFatTreeModel(numProc, msgFlits, opt)
}

// NewHypercubeModel creates the general model's hypercube instance: the
// k = 2 torus, named "hcube-N/s=…".
func NewHypercubeModel(dims int, msgFlits float64) (*analytic.TorusModel, error) {
	return analytic.NewHypercubeModel(dims, msgFlits, core.Options{})
}

// NewTorusModel creates the general model's unidirectional k-ary n-cube
// instance.
func NewTorusModel(k, dims int, msgFlits float64) (*analytic.TorusModel, error) {
	return analytic.NewTorusModel(k, dims, msgFlits, core.Options{})
}

// Simulate runs the flit-level wormhole simulator. The simulator checks
// ctx inside its cycle loop, so cancellation aborts mid-run. Options
// configure CI-width early stopping (WithSimTermination) and independent
// replicas (WithSimReplicas); with no options the run is the classic
// fixed-window simulation. Latency percentiles are asked for in the
// config (SimConfig.LatencyHistogram).
func Simulate(ctx context.Context, cfg SimConfig, opts ...sim.Option) (*SimResult, error) {
	return sim.Run(ctx, cfg, opts...)
}

// NewAnalyticBackend returns the analytical-model Evaluator: memoized
// models per topology/message length/variant, fractional loads anchored
// at the base model's Eq. 26 saturation.
func NewAnalyticBackend() *eval.AnalyticBackend { return eval.NewAnalyticBackend() }

// NewSimBackend returns the simulator Evaluator, resolving fractional
// loads through anchor (normally the sweep's AnalyticBackend; it
// satisfies the interface).
func NewSimBackend(anchor eval.LoadResolver) *eval.SimBackend { return eval.NewSimBackend(anchor) }

// Sweep expands and executes a declarative scenario grid with default
// runner settings, honouring ctx (cancellation reaches into running
// simulations). For worker bounds, custom backends, progress streaming,
// or a shared cache, use a SweepRunner directly (see sweep.NewRunner and
// its functional options WithWorkers, WithCache, WithBackends).
func Sweep(ctx context.Context, spec sweep.Spec) (*SweepResult, error) {
	return (&SweepRunner{}).Run(ctx, spec)
}

// SweepStream executes the grid and delivers each cell as it completes.
// The channel closes when the sweep finishes or ctx is cancelled; errors
// arrive as the final point.
func SweepStream(ctx context.Context, spec sweep.Spec) <-chan sweep.PointResult {
	return (&SweepRunner{}).Stream(ctx, spec)
}

// ParseSweepSpec decodes and validates a JSON sweep spec.
func ParseSweepSpec(data []byte) (sweep.Spec, error) { return sweep.ParseSpec(data) }

// SweepBuiltin returns a built-in named sweep spec (the paper's grids);
// sweep.Builtins lists the names.
func SweepBuiltin(name string) (sweep.Spec, error) { return sweep.Builtin(name) }

// NewSweepCache returns an empty sweep result cache for sharing across
// runners and specs.
func NewSweepCache() *sweep.Cache { return sweep.NewCache() }

// OpenStore opens (creating if needed) a persistent sweep result store.
// Pass it to a SweepRunner via sweep.WithCache — or to ListenAndServe
// via serve.WithCache — and every computed cell survives process
// restarts; see docs/serve.md for the on-disk layout.
func OpenStore(dir string) (*store.Store, error) { return store.Open(dir) }

// NewRemoteBackend returns an Evaluator that answers scenarios by
// calling sweepd servers at the given addresses ("host:port" or full
// URLs), sharded round-robin with retry and backoff. Plug it into a
// SweepRunner via sweep.WithBackends to fan a local grid out to a fleet.
func NewRemoteBackend(addrs []string, opts ...eval.RemoteOption) (*eval.RemoteBackend, error) {
	return eval.NewRemoteBackend(addrs, opts...)
}

// NewDispatcher returns the distributed sweep scheduler over a sweepd
// fleet: Run and Stream partition the grid into contiguous ranges,
// dispatch each range whole (only cold cells, when a cache is attached
// via dispatch.WithCache), steal work back from failed or slow shards,
// and merge the streams in grid order. A 3-shard dispatched sweep is
// cell-for-cell identical to an in-process run — shard deaths included.
func NewDispatcher(addrs []string, opts ...dispatch.Option) (*dispatch.Dispatcher, error) {
	return dispatch.New(addrs, opts...)
}

// ListenAndServe runs the sweep service (the library form of cmd/sweepd)
// on addr until ctx is cancelled, then shuts down gracefully within
// grace (0 picks a default). See docs/serve.md for the HTTP API.
func ListenAndServe(ctx context.Context, addr string, grace time.Duration, opts ...serve.Option) error {
	return serve.ListenAndServe(ctx, addr, grace, opts...)
}

// ServeWithCache attaches a result cache — NewSweepCache's or a
// persistent OpenStore's — to the sweep service.
func ServeWithCache(c SweepCacheStore) serve.Option { return serve.WithCache(c) }

// Plan runs a capacity-planner search in-process: coarse analytic
// prune, per-candidate bisection to the saturation knee, Pareto
// frontier over (cost, latency, sustainable load), simulator
// certification of the frontier. Cancelling ctx aborts the search —
// probes and certification simulations included.
func Plan(ctx context.Context, spec plan.Spec) (*plan.Result, error) {
	return plan.NewLocal(nil).Run(ctx, spec)
}

// PlanStream runs the search and delivers progress updates as they
// happen: candidates as they are pruned, refined and certified, the
// frontier in rank order, and a final done update carrying the whole
// result. Errors arrive as the final update; a cancelled ctx just
// closes the channel.
func PlanStream(ctx context.Context, spec plan.Spec) <-chan plan.Update {
	return plan.NewLocal(nil).Stream(ctx, spec)
}

// ParsePlanSpec decodes and validates a JSON plan spec; unknown fields
// fail with a field-naming error.
func ParsePlanSpec(data []byte) (plan.Spec, error) { return plan.ParseSpec(data) }

// PlanBuiltin returns a built-in named plan spec; plan.Builtins lists
// the names.
func PlanBuiltin(name string) (plan.Spec, error) { return plan.Builtin(name) }

// NewTracer returns a tracer writing NDJSON span events to w. Attach
// it to a context with WithTracing and every instrumented layer under
// that context — sweeps, dispatch, remote evaluation, the simulator,
// the planner — records spans into one stitched trace.
func NewTracer(w io.Writer) *obs.Tracer { return obs.NewTracer(w) }

// WithTracing returns a context starting new trace roots on t; pass it
// to Sweep, Plan, a Dispatcher or a SweepRunner. A nil tracer returns
// ctx unchanged.
func WithTracing(ctx context.Context, t *obs.Tracer) context.Context { return obs.WithTracer(ctx, t) }

// ServeWithTracer records the sweep service's request spans — stitched
// to the calling client's trace via the X-Obs-Trace/X-Obs-Span headers
// — and everything the engines run under them.
func ServeWithTracer(t *obs.Tracer) serve.Option { return serve.WithTracer(t) }

// ReadTraceEvents parses a stream of NDJSON span events.
func ReadTraceEvents(r io.Reader) ([]obs.Event, error) { return obs.ReadEvents(r) }

// DefaultSimTermination is the standard early-stopping rule: stop once
// the latency estimate is within ±5% at 95% confidence.
var DefaultSimTermination = sim.DefaultTermination

// WithSimReplicas runs n independent replicas of the simulation
// (derived seeds, concurrent execution) and pools their statistics.
func WithSimReplicas(n int) sim.Option { return sim.WithReplicas(n) }

// WithSimTermination enables CI-width early stopping with the given
// rule; the zero rule disables it.
func WithSimTermination(t sim.Termination) sim.Option { return sim.WithTermination(t) }
