// Package series renders experiment output: aligned text tables, CSV for
// external plotting, and ASCII scatter plots that reproduce the shape of
// the paper's figures directly in a terminal (the module is stdlib-only by
// design, so there is no graphical backend).
package series

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, e.g. "Model 16-flit".
type Series struct {
	// Name labels the series in legends and CSV headers.
	Name string
	// Marker is the single character used in ASCII plots.
	Marker byte
	// Points in increasing X order (not enforced; CSV keeps input order).
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// CSV renders multiple series as columns joined on X. Missing values are
// empty cells; rows are sorted by X. Infinite or NaN Y values (saturated
// model points) are rendered as empty cells so spreadsheet tools skip
// them.
func CSV(xLabel string, series ...*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	var b strings.Builder
	b.WriteString(csvEscape(xLabel))
	for _, s := range series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteByte(',')
			if y, ok := lookup(s, x); ok && !math.IsNaN(y) && !math.IsInf(y, 0) {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// PlotOptions configures an ASCII plot.
type PlotOptions struct {
	// Width and Height are the plot area in characters; defaults 72×24.
	Width, Height int
	// Title is printed above the plot.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// YMax clips the Y axis (useful near saturation asymptotes); 0 means
	// autoscale to the finite data.
	YMax float64
}

// Plot renders series as an ASCII scatter plot with axes, ticks and a
// legend. Non-finite values are clipped to the top edge, which is exactly
// how a latency curve behaves at saturation.
func Plot(opt PlotOptions, series ...*Series) string {
	w, h := opt.Width, opt.Height
	if w < 16 {
		w = 72
	}
	if h < 8 {
		h = 24
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := 0.0, opt.YMax
	autoY := opt.YMax <= 0
	if autoY {
		ymax = math.Inf(-1)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.X < xmin {
				xmin = p.X
			}
			if p.X > xmax {
				xmax = p.X
			}
			if autoY && !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y) && p.Y > ymax {
				ymax = p.Y
			}
		}
	}
	if math.IsInf(xmin, 1) {
		xmin, xmax = 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if math.IsInf(ymax, -1) || ymax <= ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range series {
		for _, p := range s.Points {
			col := int((p.X - xmin) / (xmax - xmin) * float64(w-1))
			y := p.Y
			if math.IsNaN(y) {
				continue
			}
			if math.IsInf(y, 1) || y > ymax {
				y = ymax
			}
			row := h - 1 - int((y-ymin)/(ymax-ymin)*float64(h-1))
			if row < 0 {
				row = 0
			}
			if row >= h {
				row = h - 1
			}
			grid[row][col] = s.Marker
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opt.YLabel)
	}
	for r, row := range grid {
		val := ymin + (ymax-ymin)*float64(h-1-r)/float64(h-1)
		fmt.Fprintf(&b, "%8.1f |%s|\n", val, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s+\n", "", strings.Repeat("-", w))
	fmt.Fprintf(&b, "%8s  %-*g%*g\n", "", w/2, xmin, w-w/2, xmax)
	if opt.XLabel != "" {
		fmt.Fprintf(&b, "%8s  %s\n", "", opt.XLabel)
	}
	for _, s := range series {
		fmt.Fprintf(&b, "  %c = %s\n", s.Marker, s.Name)
	}
	return b.String()
}

// Table is an aligned text table for experiment reports.
type Table struct {
	// Headers name the columns.
	Headers []string
	rows    [][]string
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hdr := range t.Headers {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as CSV.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	esc(t.Headers)
	for _, row := range t.rows {
		esc(row)
	}
	return b.String()
}
