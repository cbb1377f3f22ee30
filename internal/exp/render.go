package exp

import (
	"fmt"
	"math"

	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// The renderers read an executed sweep directly: sw.ByCurve()[i] holds
// the rows of sw.Curves[i], in load order.

func tableOutput(tbl *series.Table, note string, json any) Output {
	return Output{Text: tbl.String(), CSV: tbl.CSV(), Note: note, JSON: json}
}

// renderFigure3 draws the figure as ASCII in the paper's layout (latency
// vs flits/cycle/processor, one model and one experiment series per
// message length) over a per-curve table of unloaded latency s + D̄ − 1,
// Eq. 26 saturation load and model-vs-sim error.
func renderFigure3(sw *sweep.Result) Output {
	markers := []struct{ model, sim byte }{{'1', '!'}, {'2', '@'}, {'3', '#'}}
	tbl := &series.Table{Headers: []string{
		"msg flits", "unloaded L (s+D-1)", "model saturation (flits/cyc/PE)",
		"mean |err| vs sim", "max |err| vs sim"}}
	var plotted, columns []*series.Series
	var ymax float64
	for i, rows := range sw.ByCurve() {
		c := sw.Curves[i]
		label := fmt.Sprintf("%d-flit", c.MsgFlits)
		mk := markers[i%len(markers)]
		m := &series.Series{Name: "Model " + label, Marker: mk.model}
		s := &series.Series{Name: "Experiment " + label, Marker: mk.sim}
		var sum, maxE float64
		var n int
		for _, r := range rows {
			m.Add(r.LoadFlits, r.Model)
			if !math.IsInf(r.Model, 0) && r.Model > ymax {
				ymax = r.Model
			}
			if !math.IsNaN(r.Sim) {
				s.Add(r.LoadFlits, r.Sim)
				if r.Sim > ymax {
					ymax = r.Sim
				}
			}
			if e := r.RelErr(); !math.IsNaN(e) {
				sum += e
				if e > maxE {
					maxE = e
				}
				n++
			}
		}
		plotted = append(plotted, s, m)
		columns = append(columns, m, s)
		meanCell, maxCell := "n/a", "n/a"
		if n > 0 {
			meanCell = fmt.Sprintf("%.1f%%", sum/float64(n)*100)
			maxCell = fmt.Sprintf("%.1f%%", maxE*100)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", c.MsgFlits),
			fmt.Sprintf("%.1f", float64(c.MsgFlits)+c.AvgDist-1),
			fmt.Sprintf("%.4f", c.SaturationLoad),
			meanCell, maxCell,
		)
	}
	first := sw.Curves[0]
	plot := series.Plot(series.PlotOptions{
		Title:  fmt.Sprintf("Figure 3: latency vs load, %d-processor butterfly fat-tree", first.Topology.Size),
		XLabel: "Loadrate (flits/cycle per processor)",
		YLabel: "Latency (cycles)",
		YMax:   ymax * 1.05,
	}, plotted...)
	return Output{
		Text: plot + "\n" + tbl.String(),
		CSV:  series.CSV("load_flits_per_cycle", columns...),
		Note: fmt.Sprintf("saturation %.4f flits/cyc/PE at N=%d", first.SaturationLoad, first.Topology.Size),
		JSON: sw,
	}
}

// renderGrid tabulates T1: one row per cell, model against simulation.
func renderGrid(sw *sweep.Result) Output {
	tbl := &series.Table{Headers: []string{
		"N", "flits", "load frac", "flits/cyc/PE", "model L", "sim L", "±CI", "rel err"}}
	var worst float64
	for _, r := range sw.Rows {
		e := r.RelErr()
		if e > worst {
			worst = e
		}
		tbl.AddRow(
			fmt.Sprintf("%d", r.Scenario.Topology.Size),
			fmt.Sprintf("%d", r.Scenario.MsgFlits),
			fmt.Sprintf("%.0f%%", r.Scenario.Load.Value*100),
			fmt.Sprintf("%.4f", r.LoadFlits),
			fmt.Sprintf("%.2f", r.Model),
			fmt.Sprintf("%.2f", r.Sim),
			fmt.Sprintf("%.2f", r.SimCI),
			fmt.Sprintf("%.1f%%", e*100),
		)
	}
	return tableOutput(tbl, fmt.Sprintf("%d cells, worst rel err %.1f%%", len(sw.Rows), worst*100), sw)
}

// renderSaturation tabulates T2: per configuration, the Eq. 26 load next
// to the highest probed load the simulator sustained and the lowest it
// could not.
func renderSaturation(sw *sweep.Result) Output {
	tbl := &series.Table{Headers: []string{
		"N", "flits", "model sat (flits/cyc/PE)", "sim sustains", "sim saturates by"}}
	for i, rows := range sw.ByCurve() {
		c := sw.Curves[i]
		stable, saturated := math.NaN(), math.NaN()
		for _, r := range rows {
			if !r.SimSaturated {
				stable = r.LoadFlits
			} else if math.IsNaN(saturated) {
				saturated = r.LoadFlits
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%d", c.Topology.Size),
			fmt.Sprintf("%d", c.MsgFlits),
			fmt.Sprintf("%.4f", c.SaturationLoad),
			fmt.Sprintf("%.4f", stable),
			fmt.Sprintf("%.4f", saturated),
		)
	}
	return tableOutput(tbl, fmt.Sprintf("%d configurations bracketed", len(sw.Curves)), sw)
}

// renderAblations tabulates A1/A2 with one column per variant next to the
// simulation reference (+Inf where a variant predicts saturation below
// that load).
func renderAblations(sw *sweep.Result) Output {
	curves := sw.ByCurve()
	headers := []string{"flits/cyc/PE", "simulation"}
	for _, c := range sw.Curves {
		headers = append(headers, c.Variant)
	}
	tbl := &series.Table{Headers: headers}
	for i := range curves[0] {
		simL := math.NaN()
		models := make([]string, len(curves))
		for v, rows := range curves {
			if rows[i].Scenario.WithSim {
				simL = rows[i].Sim
			}
			models[v] = fmt.Sprintf("%.2f", rows[i].Model)
		}
		tbl.AddRow(append([]string{
			fmt.Sprintf("%.4f", curves[0][i].LoadFlits),
			fmt.Sprintf("%.2f", simL),
		}, models...)...)
	}
	return tableOutput(tbl, "blocking correction + M/G/2 both required", sw)
}

// renderPolicies tabulates A3: measured latency under each up-link policy
// at every load.
func renderPolicies(sw *sweep.Result) Output {
	type cell struct{ lat, ci float64 }
	loads := make([]float64, len(sw.Rows)/len(sw.Curves))
	pair, fixed := make([]cell, len(loads)), make([]cell, len(loads))
	for _, r := range sw.Rows {
		i := r.Scenario.LoadIndex
		loads[i] = r.LoadFlits
		switch r.Scenario.Policy {
		case sim.PairQueue:
			pair[i] = cell{r.Sim, r.SimCI}
		case sim.RandomFixed:
			fixed[i] = cell{r.Sim, r.SimCI}
		}
	}
	tbl := &series.Table{Headers: []string{
		"flits/cyc/PE", "pair-queue L", "±CI", "random-fixed L", "±CI"}}
	for i, load := range loads {
		tbl.AddRow(
			fmt.Sprintf("%.4f", load),
			fmt.Sprintf("%.2f", pair[i].lat),
			fmt.Sprintf("%.2f", pair[i].ci),
			fmt.Sprintf("%.2f", fixed[i].lat),
			fmt.Sprintf("%.2f", fixed[i].ci),
		)
	}
	top := len(loads) - 1
	return tableOutput(tbl, fmt.Sprintf("pair queue beats pinned by %.0f%% at top load",
		100*(fixed[top].lat-pair[top].lat)/pair[top].lat), sw)
}

// renderHypercube tabulates X1: the load sweep, model against simulation.
func renderHypercube(sw *sweep.Result) Output {
	tbl := &series.Table{Headers: []string{
		"flits/cyc/PE", "model L", "sim L", "±CI", "rel err"}}
	for _, r := range sw.Rows {
		tbl.AddRow(
			fmt.Sprintf("%.4f", r.LoadFlits),
			fmt.Sprintf("%.2f", r.Model),
			fmt.Sprintf("%.2f", r.Sim),
			fmt.Sprintf("%.2f", r.SimCI),
			fmt.Sprintf("%.1f%%", r.RelErr()*100),
		)
	}
	c := sw.Curves[0]
	return tableOutput(tbl, fmt.Sprintf("%d-cube saturation %.4f flits/cyc/PE",
		c.Topology.Size, c.SaturationLoad), sw)
}
