package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// HopWaitRow is one row of experiment V1: the per-channel-class
// arbitration wait, measured in simulation against the model's
// flow-weighted prediction Σ P(i|j)·W̄ⱼ (Eq. 9/10).
type HopWaitRow struct {
	// Class is the channel-class name.
	Class string
	// SimWait is the measured mean wait of worms granted a channel of
	// this class; SimSamples the number of grants observed.
	SimWait    float64
	SimSamples int64
	// ModelWait is the model's flow-weighted blended wait for worms
	// entering this class.
	ModelWait float64
}

// HopWaits runs experiment V1 on a butterfly fat-tree: it
// instruments every channel grant, aggregates waits per channel class,
// and compares them with the model's blended blocking-corrected waits.
// The injection class is excluded (its simulator-side wait spans the
// source queue, which the model accounts separately as W̄₀₁). Cancelling
// ctx aborts the instrumented simulation inside its cycle loop.
func HopWaits(ctx context.Context, numProc, msgFlits int, load float64, b sweep.Budget) ([]HopWaitRow, error) {
	model, err := analytic.NewFatTreeModel(numProc, float64(msgFlits), core.Options{})
	if err != nil {
		return nil, err
	}
	ft, err := topology.NewFatTree(numProc)
	if err != nil {
		return nil, err
	}
	lambda0 := load / float64(msgFlits)

	// Simulator side: aggregate waits per class.
	agg := map[string]*stats.Stream{}
	cfg := sim.Config{
		Net:           ft,
		MsgFlits:      msgFlits,
		Pattern:       traffic.Uniform{},
		Seed:          b.Seed,
		WarmupCycles:  b.Warmup,
		MeasureCycles: b.Measure,
		HopWaitObserver: func(ch topology.ChannelID, wait int64) {
			name := analytic.FatTreeClassOf(ft, ch)
			s := agg[name]
			if s == nil {
				s = &stats.Stream{}
				agg[name] = s
			}
			s.Add(float64(wait))
		},
	}.FlitLoad(load)
	if _, err := sim.Run(ctx, cfg); err != nil {
		return nil, err
	}

	// Model side: blend P(i|j)·W̄ⱼ over the incoming flows of each class,
	// reading the transitions from the compiled graph and the rates, waits
	// and blocking factors from one resolved workspace.
	ws := core.AcquireWorkspace()
	defer ws.Release()
	if err := model.Resolve(ws, lambda0); err != nil {
		return nil, err
	}
	g := model.Graph()
	links := map[string]float64{}
	for ch := topology.ChannelID(0); ch < topology.ChannelID(ft.NumChannels()); ch++ {
		links[analytic.FatTreeClassOf(ft, ch)]++
	}
	type blend struct{ num, den float64 }
	blends := map[string]*blend{}
	for i := 0; i < g.Len(); i++ {
		from := core.ClassID(i)
		flowBase := ws.Rate(from) * links[g.Name(from)]
		block := ws.Blocking(from)
		for ti, t := range g.Out(from) {
			to := g.Name(t.To)
			bl := blends[to]
			if bl == nil {
				bl = &blend{}
				blends[to] = bl
			}
			flow := flowBase * t.Prob
			bl.num += flow * block[ti] * ws.Wait[t.To]
			bl.den += flow
		}
	}

	var rows []HopWaitRow
	for i := 0; i < g.Len(); i++ {
		name := g.Name(core.ClassID(i))
		if name == "up<0,1>" {
			continue // source-queue semantics differ; see doc comment
		}
		bl := blends[name]
		row := HopWaitRow{Class: name, ModelWait: math.NaN()}
		if bl != nil && bl.den > 0 {
			row.ModelWait = bl.num / bl.den
		}
		if s := agg[name]; s != nil {
			row.SimWait = s.Mean()
			row.SimSamples = s.N()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MarshalJSON encodes the row with non-finite waits as null (a class
// can lack a model-side blend or simulator samples).
func (r HopWaitRow) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Class      string   `json:"class"`
		ModelWait  *float64 `json:"model_wait"`
		SimWait    *float64 `json:"sim_wait"`
		SimSamples int64    `json:"sim_samples"`
	}{r.Class, eval.Finite(r.ModelWait), eval.Finite(r.SimWait), r.SimSamples})
}

// hopWaitsEntry is V1 in the experiment table: 16-flit messages on the
// A3-sized fat-tree at half the saturation load of F3's first curve.
func hopWaitsEntry(ctx context.Context, scale string, b sweep.Budget) (Output, error) {
	g := gridOf(scale)
	f3, err := analytic.NewFatTreeModel(g.figN, 16, core.Options{})
	if err != nil {
		return Output{}, err
	}
	sat, err := f3.SaturationLoad()
	if err != nil {
		return Output{}, err
	}
	rows, err := HopWaits(ctx, min(g.figN, 256), 16, 0.5*sat, b)
	if err != nil {
		return Output{}, err
	}
	tbl := &series.Table{Headers: []string{"class", "model wait (Eq.9)", "sim wait", "samples"}}
	for _, r := range rows {
		tbl.AddRow(
			r.Class,
			fmt.Sprintf("%.3f", r.ModelWait),
			fmt.Sprintf("%.3f", r.SimWait),
			fmt.Sprintf("%d", r.SimSamples),
		)
	}
	return tableOutput(tbl, fmt.Sprintf("%d channel classes compared", len(rows)), rows), nil
}
