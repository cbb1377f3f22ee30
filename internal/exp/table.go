package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/sweep"
)

// Experiment is one entry of the evaluation: a sweep spec with a
// renderer, or (X2, V1) a bespoke computation behind the same Run
// signature.
type Experiment struct {
	// ID is the experiment's index in DESIGN.md ("F3", "A1/A2", …).
	ID string
	// Artifact names the output: RunAll writes Artifact+".txt", and
	// Artifact+".csv" too when PlotCSV is set (the text form is a plot,
	// so the data needs its own file).
	Artifact string
	PlotCSV  bool
	// Title is the short description shown in listings and progress.
	Title string
	// Spec returns the experiment's grid at a scale ("paper" or "small")
	// and simulation budget; Render turns the executed grid into the
	// artifact. Both are nil for the bespoke entries.
	Spec   func(scale string, b sweep.Budget) (sweep.Spec, error)
	Render func(*sweep.Result) Output
	// Bespoke runs an experiment that is not a sweep.
	Bespoke func(ctx context.Context, scale string, b sweep.Budget) (Output, error)
}

// Output is one rendered experiment.
type Output struct {
	// Text is the artifact; CSV the same data for external tools.
	Text, CSV string
	// Note is the experiment's line in SUMMARY.txt.
	Note string
	// JSON is the value behind a machine-readable dump: the sweep result,
	// or the bespoke entry's rows.
	JSON any
}

// All lists every experiment in DESIGN.md's index, in reporting order.
var All = []Experiment{
	{ID: "F3", Artifact: "figure3", PlotCSV: true, Title: "Figure 3",
		Spec: figure3Spec, Render: renderFigure3},
	{ID: "T1", Artifact: "validate", Title: "validation grid",
		Spec: gridSpec, Render: renderGrid},
	{ID: "T2", Artifact: "saturation", Title: "saturation",
		Spec: saturationSpec, Render: renderSaturation},
	{ID: "A1/A2", Artifact: "ablation", Title: "model ablations",
		Spec: ablationSpec, Render: renderAblations},
	{ID: "A3", Artifact: "policy", Title: "policy comparison",
		Spec: policySpec, Render: renderPolicies},
	{ID: "X1", Artifact: "hypercube", Title: "hypercube",
		Spec: hypercubeSpec, Render: renderHypercube},
	{ID: "X2", Artifact: "torus", Title: "torus consistency",
		Bespoke: torusConsistency},
	{ID: "V1", Artifact: "hopwaits", Title: "per-hop waits",
		Bespoke: hopWaitsEntry},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (*Experiment, error) {
	ids := make([]string, len(All))
	for i := range All {
		if All[i].ID == id {
			return &All[i], nil
		}
		ids[i] = All[i].ID
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// Run executes the experiment at the given scale and budget. Sweep-backed
// entries run their spec on r, so experiments sharing a runner share its
// cache; cancelling ctx aborts mid-simulation.
func (e *Experiment) Run(ctx context.Context, r *sweep.Runner, scale string, b sweep.Budget) (Output, error) {
	if e.Spec == nil {
		return e.Bespoke(ctx, scale, b)
	}
	spec, err := e.Spec(scale, b)
	if err != nil {
		return Output{}, err
	}
	return e.RunSpec(ctx, r, spec)
}

// RunSpec executes spec — typically the experiment's own Spec, edited —
// on r and renders it with the experiment's renderer.
func (e *Experiment) RunSpec(ctx context.Context, r *sweep.Runner, spec sweep.Spec) (Output, error) {
	if e.Render == nil {
		return Output{}, fmt.Errorf("exp: %s is not sweep-backed", e.ID)
	}
	sw, err := r.Run(ctx, spec)
	if err != nil {
		return Output{}, err
	}
	return e.Render(sw), nil
}

// grid holds the machine sizes of one scale.
type grid struct {
	// sizes are the fat-trees of T1/T2; figN the fat-tree of F3 and
	// A1/A2; dims the cube of X1/X2. A3 and V1 run at min(figN, 256).
	sizes []int
	figN  int
	dims  int
}

// gridOf returns the sizes of a scale: "small" caps machines at 256
// processors for constrained CI machines, anything else is the paper's.
func gridOf(scale string) grid {
	if scale == "small" {
		return grid{sizes: []int{16, 64, 256}, figN: 256, dims: 6}
	}
	return grid{sizes: []int{64, 256, 1024}, figN: 1024, dims: 8}
}

func bft(sizes ...int) []sweep.TopologySpec {
	return []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: sizes}}
}

// fromBuiltin starts from the sweep builtin that already names the
// experiment's paper-scale grid, applying the budget and the scale's
// machine sizes.
func fromBuiltin(name, scale string, b sweep.Budget, sizes ...int) (sweep.Spec, error) {
	spec, err := sweep.Builtin(name)
	if err != nil {
		return sweep.Spec{}, err
	}
	spec.Budget = b
	spec.Topologies = bft(sizes...)
	if scale == "small" {
		spec.Description += fmt.Sprintf(" (small scale: N=%v)", sizes)
	}
	return spec, nil
}

// figure3Spec is F3, the paper's Figure 3: latency vs load rate for the
// 1024-processor butterfly fat-tree with 16-, 32- and 64-flit messages,
// ten loads to 95% of saturation, model against simulation.
func figure3Spec(scale string, b sweep.Budget) (sweep.Spec, error) {
	return fromBuiltin("figure3", scale, b, gridOf(scale).figN)
}

// gridSpec is T1, §3.6's "accurate for all cases": every machine size
// and message length at 20/50/80% of saturation.
func gridSpec(scale string, b sweep.Budget) (sweep.Spec, error) {
	return fromBuiltin("table2", scale, b, gridOf(scale).sizes...)
}

// saturationSpec is T2: every configuration probed at fixed fractions of
// its model saturation load, bracketing the simulator's own saturation
// point. The drain limit is capped at the measurement window so
// super-saturated probes finish in bounded time.
func saturationSpec(scale string, b sweep.Budget) (sweep.Spec, error) {
	if b.DrainLimit == 0 {
		b.DrainLimit = b.Measure
	}
	return sweep.Spec{
		Name:        "saturation",
		Description: "T2 saturation throughput: simulated bracket around the Eq. 26 load",
		Topologies:  bft(gridOf(scale).sizes...),
		MsgFlits:    []int{16, 32, 64},
		Loads:       sweep.LoadSpec{Fracs: []float64{0.80, 0.95, 1.10, 1.30}},
		WithSim:     true,
		Budget:      b,
	}, nil
}

// pinLoads fixes the spec's loads at `points` absolute values up to frac
// of the model's saturation load, so every curve of the grid (variants,
// policies) is probed at identical operating points.
func pinLoads(spec sweep.Spec, m *analytic.Model, points int, frac float64) (sweep.Spec, error) {
	loads, err := LoadsUpTo(m, points, frac)
	if err != nil {
		return sweep.Spec{}, err
	}
	spec.Loads = sweep.LoadSpec{Flits: loads}
	return spec, nil
}

// ablationSpec is A1/A2: the paper's model against variants with one of
// its two novel ingredients removed (plus the pre-erratum M/G/2 rate) on
// one curve. The simulator reference is attached to the paper-model
// variant only — it does not depend on model options.
func ablationSpec(scale string, b sweep.Budget) (sweep.Spec, error) {
	n, flits := gridOf(scale).figN, 32
	base, err := analytic.NewFatTreeModel(n, float64(flits), core.Options{})
	if err != nil {
		return sweep.Spec{}, err
	}
	return pinLoads(sweep.Spec{
		Name:        "ablations",
		Description: fmt.Sprintf("A1/A2 model ablations, N=%d, s=%d", n, flits),
		Topologies:  bft(n),
		MsgFlits:    []int{flits},
		Variants: []sweep.Variant{
			{Name: "paper model", WithSim: true},
			{Name: "A1: no blocking correction", NoBlockingCorrection: true},
			{Name: "A2: up-links as 2x M/G/1", SingleServerGroups: true},
			{Name: "pre-erratum M/G/2 rate", NoPairRateCorrection: true},
		},
		WithSim: true,
		Budget:  b,
	}, &base.Model, 6, 0.9)
}

// policySpec is A3: one curve simulated under both up-link arbitration
// policies — the shared-queue pair (M/G/2-like) against randomly pinned
// links (2×M/G/1-like).
func policySpec(scale string, b sweep.Budget) (sweep.Spec, error) {
	n, flits := min(gridOf(scale).figN, 256), 16
	model, err := analytic.NewFatTreeModel(n, float64(flits), core.Options{})
	if err != nil {
		return sweep.Spec{}, err
	}
	return pinLoads(sweep.Spec{
		Name:        "policy-comparison",
		Description: fmt.Sprintf("A3 up-link policy comparison, N=%d, s=%d", n, flits),
		Topologies:  bft(n),
		MsgFlits:    []int{flits},
		Policies:    []string{"pairqueue", "randomfixed"},
		WithSim:     true,
		Budget:      b,
	}, &model.Model, 4, 0.85)
}

// hypercubeSpec is X1: the general model applied to a binary hypercube,
// validated against simulation (§4's extension claim).
func hypercubeSpec(scale string, b sweep.Budget) (sweep.Spec, error) {
	dims, flits := gridOf(scale).dims, 16
	model, err := analytic.NewHypercubeModel(dims, float64(flits), core.Options{})
	if err != nil {
		return sweep.Spec{}, err
	}
	return pinLoads(sweep.Spec{
		Name:        "hypercube-x1",
		Description: fmt.Sprintf("X1 hypercube extension, %d-cube, s=%d", dims, flits),
		Topologies:  []sweep.TopologySpec{{Family: sweep.FamilyHypercube, Sizes: []int{dims}}},
		MsgFlits:    []int{flits},
		WithSim:     true,
		Budget:      b,
	}, &model.Model, 6, 0.85)
}

// TorusRow is one load point of experiment X2.
type TorusRow struct {
	LoadFlits float64 `json:"load_flits"`
	// Hypercube is the hypercube's closed-form latency, Torus the k = 2
	// torus model's.
	Hypercube float64 `json:"hypercube_latency"`
	Torus     float64 `json:"torus_latency"`
}

// torusConsistency is X2: the k-ary n-cube model at k = 2, resolved on
// its channel graph, must agree with the hypercube's closed-form
// backward sweep (TorusModel.ClosedForm) — an independent
// implementation of the same equations — at every probed load. (The
// hypercube model's Latency is the k = 2 torus itself, so comparing the
// two would compare a model with itself.) It is model-only, so the
// budget and ctx go unused.
func torusConsistency(_ context.Context, scale string, _ sweep.Budget) (Output, error) {
	dims, flits := gridOf(scale).dims, 16.0
	hc, err := analytic.NewHypercubeModel(dims, flits, core.Options{})
	if err != nil {
		return Output{}, err
	}
	t2, err := analytic.NewTorusModel(2, dims, flits, core.Options{})
	if err != nil {
		return Output{}, err
	}
	loads, err := LoadsUpTo(&hc.Model, 6, 0.9)
	if err != nil {
		return Output{}, err
	}
	tbl := &series.Table{Headers: []string{"flits/cyc/PE", "hypercube closed-form L", "2-ary torus L", "diff"}}
	var maxDiff float64
	var rows []TorusRow
	for _, load := range loads {
		a, err := hc.ClosedForm(load / flits)
		if err != nil {
			return Output{}, err
		}
		b, err := t2.Latency(load / flits)
		if err != nil {
			return Output{}, err
		}
		d := math.Abs(a.Total - b.Total)
		if d > maxDiff {
			maxDiff = d
		}
		rows = append(rows, TorusRow{LoadFlits: load, Hypercube: a.Total, Torus: b.Total})
		tbl.AddRow(
			fmt.Sprintf("%.4f", load),
			fmt.Sprintf("%.4f", a.Total),
			fmt.Sprintf("%.4f", b.Total),
			fmt.Sprintf("%.2e", d),
		)
	}
	return tableOutput(tbl, fmt.Sprintf("k=2 max diff %.1e", maxDiff), rows), nil
}
