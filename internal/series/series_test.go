package series

import (
	"math"
	"strings"
	"testing"
)

func TestCSVJoinsOnX(t *testing.T) {
	a := &Series{Name: "model"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "sim"}
	b.Add(2, 21)
	b.Add(3, 31)
	got := CSV("load", a, b)
	want := "load,model,sim\n1,10,\n2,20,21\n3,,31\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestCSVEscapes(t *testing.T) {
	s := &Series{Name: `mo,"del`}
	s.Add(1, 2)
	got := CSV("x", s)
	if !strings.Contains(got, `"mo,""del"`) {
		t.Errorf("CSV escaping broken:\n%s", got)
	}
}

func TestCSVSkipsNonFinite(t *testing.T) {
	s := &Series{Name: "m"}
	s.Add(1, math.Inf(1))
	s.Add(2, math.NaN())
	s.Add(3, 5)
	got := CSV("x", s)
	want := "x,m\n1,\n2,\n3,5\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestPlotContainsMarkersAndLegend(t *testing.T) {
	a := &Series{Name: "model", Marker: 'o'}
	b := &Series{Name: "sim", Marker: '*'}
	for i := 0; i < 10; i++ {
		a.Add(float64(i), float64(i*i))
		b.Add(float64(i), float64(i*i)+3)
	}
	out := Plot(PlotOptions{Title: "t", XLabel: "x", YLabel: "y", Width: 40, Height: 12}, a, b)
	for _, want := range []string{"o", "*", "o = model", "* = sim", "t", "x", "y"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 12 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
}

func TestPlotClipsInfinity(t *testing.T) {
	s := &Series{Name: "sat", Marker: '#'}
	s.Add(0, 1)
	s.Add(1, math.Inf(1))
	out := Plot(PlotOptions{Width: 20, Height: 8, YMax: 10}, s)
	// The infinite point must land on the top row, not crash.
	top := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(top, "#") {
		t.Errorf("infinite point not clipped to top:\n%s", out)
	}
}

func TestPlotDegenerateInputs(t *testing.T) {
	// Empty series, single point, constant series: must not panic.
	empty := &Series{Name: "e", Marker: 'e'}
	single := &Series{Name: "s", Marker: 's'}
	single.Add(5, 5)
	flat := &Series{Name: "f", Marker: 'f'}
	flat.Add(1, 2)
	flat.Add(2, 2)
	for _, s := range []*Series{empty, single, flat} {
		if out := Plot(PlotOptions{}, s); out == "" {
			t.Errorf("empty plot for %s", s.Name)
		}
	}
	if out := Plot(PlotOptions{}); out == "" {
		t.Error("plot with no series should still render axes")
	}
}

func TestTableAlignmentAndCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"N", "model", "simulation"}}
	tbl.AddRow("64", "22.5", "23.3")
	tbl.AddRow("1024", "31.0", "32.9")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "N   ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("missing rule: %q", lines[1])
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "N,model,simulation\n64,22.5,23.3\n") {
		t.Errorf("CSV:\n%s", csv)
	}
	if len(tbl.rows) != 2 {
		t.Errorf("%d rows, want 2", len(tbl.rows))
	}
}

func TestTableShortRows(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b", "c"}}
	tbl.AddRow("1")
	out := tbl.String()
	if !strings.Contains(out, "1") {
		t.Errorf("row lost:\n%s", out)
	}
	if got := strings.Count(tbl.CSV(), ","); got != 4 {
		t.Errorf("CSV comma count = %d, want 4 (2 per row)", got)
	}
}
