package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/eval"
	"repro/internal/series"
	"repro/internal/workload"
)

// CurveInfo summarises one curve (topology × message length × policy ×
// variant) of a sweep: the model behind it, its saturation operating
// point (Eq. 26), and its average distance D̄.
type CurveInfo struct {
	Topology Topology `json:"topology"`
	MsgFlits int      `json:"msg_flits"`
	Policy   string   `json:"policy"`
	// Variant names the model-ablation variant; empty for the paper's
	// model.
	Variant string `json:"variant,omitempty"`
	// Workload labels the workload axis value; empty for the paper's
	// steady uniform Poisson workload.
	Workload string `json:"workload,omitempty"`
	// Model is the model's name, e.g. "bft-1024/s=16".
	Model string `json:"model"`
	// SaturationLoad is in flits/cycle/processor; NaN when the search
	// failed and no fractional loads needed it.
	SaturationLoad float64 `json:"-"`
	// AvgDist is D̄ in channels.
	AvgDist float64 `json:"avg_dist"`
}

// Row is one executed scenario.
type Row struct {
	Scenario Scenario
	Cell
	// Cached reports the row was served from the runner's cache.
	Cached bool
}

// RelErr returns |sim−model|/model, or NaN when either side is not
// finite.
func (r Row) RelErr() float64 {
	if math.IsInf(r.Model, 0) || math.IsNaN(r.Model) || math.IsNaN(r.Sim) {
		return math.NaN()
	}
	return math.Abs(r.Sim-r.Model) / r.Model
}

// Result is one executed sweep: rows in expansion order plus per-curve
// metadata and cache accounting.
type Result struct {
	Spec   Spec
	Rows   []Row
	Curves []CurveInfo
	// CacheHits and CacheMisses count this run's cells by provenance.
	CacheHits, CacheMisses int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration

	// curves are the grid's curves, whose cells Rows holds.
	curves []Curve
}

// ByCurve splits the rows into one run per curve, in load order:
// ByCurve()[i] holds the rows of Curves[i], the cells of the grid's i-th
// curve.
func (r *Result) ByCurve() [][]Row {
	out := make([][]Row, len(r.curves))
	for i, c := range r.curves {
		out[i] = r.Rows[c.Start:c.End]
	}
	return out
}

// Table renders the sweep as the repo's standard fixed-width table. A
// variant column appears only when the grid has a variant axis.
func (r *Result) Table() *series.Table {
	withVariants := false
	for _, row := range r.Rows {
		if row.Scenario.Variant.Name != "" {
			withVariants = true
			break
		}
	}
	withWorkloads := false
	for _, row := range r.Rows {
		if !row.Scenario.Workload.IsDefault() {
			withWorkloads = true
			break
		}
	}
	withBounds := false
	for _, row := range r.Rows {
		if !math.IsNaN(row.BoundMax) || row.BoundUnbounded || row.BoundNA {
			withBounds = true
			break
		}
	}
	headers := []string{"topology", "flits", "policy"}
	if withVariants {
		headers = append(headers, "variant")
	}
	if withWorkloads {
		headers = append(headers, "workload")
	}
	headers = append(headers, "flits/cyc/PE", "model L", "sim L", "±CI", "rel err")
	if withBounds {
		headers = append(headers, "wc bound")
	}
	headers = append(headers, "cached")
	tbl := &series.Table{Headers: headers}
	for _, row := range r.Rows {
		model := "sat"
		switch {
		case row.ModelNA:
			model = "n/a"
		case !row.ModelSaturated:
			model = fmt.Sprintf("%.4f", row.Model)
		}
		simCell, ciCell, errCell := "-", "-", "-"
		if !math.IsNaN(row.Sim) {
			simCell = fmt.Sprintf("%.4f", row.Sim)
			ciCell = fmt.Sprintf("%.4f", row.SimCI)
			if row.SimSaturated {
				simCell += "*"
			}
			if e := row.RelErr(); !math.IsNaN(e) {
				errCell = fmt.Sprintf("%.1f%%", e*100)
			}
		}
		cached := ""
		if row.Cached {
			cached = "yes"
		}
		cells := []string{
			row.Scenario.Topology.String(),
			fmt.Sprintf("%d", row.Scenario.MsgFlits),
			row.Scenario.Policy.String(),
		}
		if withVariants {
			cells = append(cells, row.Scenario.Variant.Name)
		}
		if withWorkloads {
			wl := ""
			if !row.Scenario.Workload.IsDefault() {
				wl = row.Scenario.Workload.Label()
			}
			cells = append(cells, wl)
		}
		cells = append(cells,
			fmt.Sprintf("%.6f", row.LoadFlits),
			model, simCell, ciCell, errCell,
		)
		if withBounds {
			bound := "-"
			switch {
			case row.BoundNA:
				bound = "n/a"
			case row.BoundUnbounded:
				bound = "unbounded"
			case !math.IsNaN(row.BoundMax):
				bound = fmt.Sprintf("%.1f", row.BoundMax)
			}
			cells = append(cells, bound)
		}
		tbl.AddRow(append(cells, cached)...)
	}
	return tbl
}

// Summary renders a short account of the run: grid shape, cache
// behaviour, and per-curve saturation loads.
func (r *Result) Summary() string {
	name := r.Spec.Name
	if name == "" {
		name = "sweep"
	}
	out := fmt.Sprintf("%s: %d cells (%d curves), %d computed, %d cached, %s\n",
		name, len(r.Rows), len(r.Curves), r.CacheMisses, r.CacheHits,
		r.Elapsed.Round(time.Millisecond))
	for _, c := range r.Curves {
		sat := "n/a"
		if !math.IsNaN(c.SaturationLoad) {
			sat = fmt.Sprintf("%.4f", c.SaturationLoad)
		}
		label := fmt.Sprintf("%s s=%d %s", c.Topology, c.MsgFlits, c.Policy)
		if c.Variant != "" {
			label += " [" + c.Variant + "]"
		}
		if c.Workload != "" {
			label += " {" + c.Workload + "}"
		}
		out += fmt.Sprintf("  %-28s D=%.2f saturation %s flits/cyc/PE\n",
			label, c.AvgDist, sat)
	}
	return out
}

// jsonRow flattens a Row for serialisation; non-finite floats become
// null/absent, which encoding/json cannot express natively.
type jsonRow struct {
	Topology       string         `json:"topology"`
	Family         string         `json:"family"`
	Size           int            `json:"size"`
	K              int            `json:"k,omitempty"`
	MsgFlits       int            `json:"msg_flits"`
	Policy         string         `json:"policy"`
	Variant        string         `json:"variant,omitempty"`
	Workload       *workload.Spec `json:"workload,omitempty"`
	LoadFlits      *float64       `json:"load_flits"`
	ModelLatency   *float64       `json:"model_latency"`
	ModelSaturated bool           `json:"model_saturated,omitempty"`
	ModelNA        bool           `json:"model_na,omitempty"`
	SimLatency     *float64       `json:"sim_latency,omitempty"`
	SimCI95        *float64       `json:"sim_ci95,omitempty"`
	SimSaturated   bool           `json:"sim_saturated,omitempty"`
	SimPrecision   *float64       `json:"sim_precision,omitempty"`
	// The bound fields are append-only: all omitted when no bounds
	// backend ran, so pre-bounds rows keep their exact byte layout.
	BoundMax       *float64 `json:"bound_max,omitempty"`
	BoundUnbounded bool     `json:"bound_unbounded,omitempty"`
	BoundNA        bool     `json:"bound_na,omitempty"`
	Seed           uint64   `json:"seed"`
	Cached         bool     `json:"cached,omitempty"`
}

// jsonCurve overrides the non-finite-capable fields: backends without a
// curve describer leave saturation and average distance NaN, which
// encoding/json cannot express natively.
type jsonCurve struct {
	CurveInfo
	SaturationLoad *float64 `json:"saturation_load"`
	AvgDist        *float64 `json:"avg_dist"`
}

type jsonResult struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Curves      []jsonCurve `json:"curves"`
	Rows        []jsonRow   `json:"rows"`
	CacheHits   int         `json:"cache_hits"`
	CacheMisses int         `json:"cache_misses"`
	ElapsedMS   int64       `json:"elapsed_ms"`
}

// MarshalJSON serialises the result with non-finite values mapped to
// null (model saturation keeps its boolean marker).
func (r *Result) MarshalJSON() ([]byte, error) {
	out := jsonResult{
		Name:        r.Spec.Name,
		Description: r.Spec.Description,
		CacheHits:   r.CacheHits,
		CacheMisses: r.CacheMisses,
		ElapsedMS:   r.Elapsed.Milliseconds(),
	}
	for _, c := range r.Curves {
		out.Curves = append(out.Curves, jsonCurve{
			CurveInfo:      c,
			SaturationLoad: eval.Finite(c.SaturationLoad),
			AvgDist:        eval.Finite(c.AvgDist),
		})
	}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, row.jsonRow())
	}
	return json.MarshalIndent(out, "", "  ")
}

func (r Row) jsonRow() jsonRow {
	jr := jsonRow{
		Topology:       r.Scenario.Topology.String(),
		Family:         r.Scenario.Topology.Family,
		Size:           r.Scenario.Topology.Size,
		K:              r.Scenario.Topology.K,
		MsgFlits:       r.Scenario.MsgFlits,
		Policy:         r.Scenario.Policy.String(),
		Variant:        r.Scenario.Variant.Name,
		LoadFlits:      eval.Finite(r.LoadFlits),
		ModelLatency:   eval.Finite(r.Model),
		ModelSaturated: r.ModelSaturated,
		ModelNA:        r.ModelNA,
		SimLatency:     eval.Finite(r.Sim),
		SimSaturated:   r.SimSaturated,
		Seed:           r.Scenario.Seed(),
		Cached:         r.Cached,
	}
	if !r.Scenario.Workload.IsDefault() {
		jr.Workload = r.Scenario.Workload
	}
	if !math.IsNaN(r.Sim) {
		jr.SimCI95 = eval.Finite(r.SimCI)
		jr.SimPrecision = eval.Finite(r.SimPrecision)
	}
	jr.BoundMax = eval.Finite(r.BoundMax)
	jr.BoundUnbounded = r.BoundUnbounded
	jr.BoundNA = r.BoundNA
	return jr
}

// MarshalJSON serialises one row in the same flattened shape the Result
// uses, with non-finite values mapped to null: the line format of
// cmd/sweep's NDJSON streaming output.
func (r Row) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.jsonRow())
}
