package main

import (
	"bufio"
	"bytes"
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sweep"
)

// The goldens are the seed-1, full-size outputs this ledger was first
// recorded with. Model and bound values must match to 1e-9 relative.
// Simulated latencies must land within the sum of the golden's and the
// run's own 95% CI half-widths — not bit-identity, so a change of RNG
// order passes while a broken engine does not.
//
//go:embed golden
var goldenFS embed.FS

// goldenRow is one line of a golden file: "key<TAB>tight values
// (space-separated)<TAB>sim<TAB>ci". sim and ci are NaN where the row
// has no simulated side.
type goldenRow struct {
	key     string
	tight   []float64
	sim, ci float64
}

const goldenTol = 1e-9

// goldenRows renders sweep rows: model and bound tight, sim within CI.
func goldenRows(rows []sweep.Row) []goldenRow {
	out := make([]goldenRow, len(rows))
	for i, r := range rows {
		out[i] = goldenRow{
			key:   fmt.Sprintf("%s#%d", r.Scenario.CurveKey(), r.Scenario.LoadIndex),
			tight: []float64{r.LoadFlits, r.Model, r.BoundMax},
			sim:   r.Sim,
			ci:    r.SimCI,
		}
	}
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares rows with golden/<name>.tsv and returns how many
// differ. With -update-golden it rewrites the file and reports none.
func (e *env) checkGolden(name string, rows []goldenRow) (int, error) {
	if e.updateGolden != "" {
		var b bytes.Buffer
		for _, r := range rows {
			tight := make([]string, len(r.tight))
			for i, v := range r.tight {
				tight[i] = fmtFloat(v)
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", r.key, strings.Join(tight, " "), fmtFloat(r.sim), fmtFloat(r.ci))
		}
		if err := os.MkdirAll(e.updateGolden, 0o755); err != nil {
			return 0, err
		}
		return 0, os.WriteFile(filepath.Join(e.updateGolden, name+".tsv"), b.Bytes(), 0o644)
	}
	data, err := goldenFS.ReadFile("golden/" + name + ".tsv")
	if err != nil {
		return 0, fmt.Errorf("golden %s: %w (run with -update-golden at seed 1 to create it)", name, err)
	}
	want, err := parseGolden(data)
	if err != nil {
		return 0, fmt.Errorf("golden %s: %w", name, err)
	}
	if len(want) != len(rows) {
		return len(rows), nil
	}
	bad := 0
	for i, g := range want {
		if !sameGolden(rows[i], g) {
			bad++
		}
	}
	return bad, nil
}

func sameGolden(got, want goldenRow) bool {
	if got.key != want.key || len(got.tight) != len(want.tight) {
		return false
	}
	for i := range want.tight {
		if !closeTo(got.tight[i], want.tight[i], goldenTol) {
			return false
		}
	}
	if math.IsNaN(want.sim) || math.IsNaN(got.sim) {
		return math.IsNaN(want.sim) && math.IsNaN(got.sim)
	}
	return math.Abs(got.sim-want.sim) <= got.ci+want.ci
}

func parseGolden(data []byte) ([]goldenRow, error) {
	var out []goldenRow
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("line %d: want 4 tab-separated fields, got %d", line, len(f))
		}
		r := goldenRow{key: f[0]}
		for _, s := range strings.Fields(f[1]) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			r.tight = append(r.tight, v)
		}
		var err error
		if r.sim, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if r.ci, err = strconv.ParseFloat(f[3], 64); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
