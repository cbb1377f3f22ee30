package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdicts of -compare, per workload and bounded metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictUnresolved = "UNRESOLVED"
	verdictRegression = "REGRESSION"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// judge compares a candidate row with its baseline under the metric's
// bound. A median worse by more than the bound is a regression — unless
// either side's own spread (q3-q1) is wider than the bound and the two
// inter-quartile ranges interleave, in which case the runs cannot
// resolve it. A median better by more than both spreads is better; a
// row measured once per run has no spread to judge that by.
func judge(def metricDef, base, cand row) string {
	worse := cand.Median - base.Median
	if def.better == "higher" {
		worse = -worse
	}
	limit := def.bound * math.Abs(base.Median)
	if def.absBound {
		limit = def.bound
	}
	spread := math.Max(base.Q3-base.Q1, cand.Q3-cand.Q1)
	interleave := cand.Q1 <= base.Q3 && base.Q1 <= cand.Q3
	switch {
	case worse > limit && spread > limit && interleave:
		return verdictUnresolved
	case worse > limit:
		return verdictRegression
	case -worse > spread && base.N > 1 && cand.N > 1:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// compareFiles prints one verdict per workload and bounded metric and
// reports whether the candidate has neither a regression nor an
// unresolved row. Both results must come from the same seed and phase
// length.
func compareFiles(w io.Writer, basePath, candPath string) (bool, error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResult(candPath)
	if err != nil {
		return false, err
	}
	bp, cp := base.Provenance, cand.Provenance
	if bp.Seed != cp.Seed || bp.Seconds != cp.Seconds || bp.Smoke || cp.Smoke {
		return false, fmt.Errorf("bench: results are not comparable (seed %d vs %d, %gs vs %gs, smoke %v/%v)",
			bp.Seed, cp.Seed, bp.Seconds, cp.Seconds, bp.Smoke, cp.Smoke)
	}
	fmt.Fprintf(w, "baseline  %s (%s)\ncandidate %s (%s)\n", bp.Commit, basePath, cp.Commit, candPath)
	ok := true
	line := func(scope string, def metricDef, b, c row) {
		v := judge(def, b, c)
		if v == verdictRegression || v == verdictUnresolved {
			ok = false
		}
		fmt.Fprintf(w, "  %-14s %-24s %14.6g -> %-14.6g %-9s %+7.2f%%  %s\n",
			scope, def.name, b.Median, c.Median, def.unit, 100*(c.Median-b.Median)/math.Abs(b.Median), v)
	}
	find := func(rows []row, name string) (row, bool) {
		for _, r := range rows {
			if r.Name == name {
				return r, true
			}
		}
		return row{}, false
	}
	for _, bw := range base.Workloads {
		cw := cand.workload(bw.Name)
		if cw == nil {
			continue
		}
		for _, def := range workloadMetrics {
			b, okB := find(bw.Rows, def.name)
			c, okC := find(cw.Rows, def.name)
			if okB && okC {
				line(bw.Name, def, b, c)
			}
		}
	}
	if cand.Failed > 0 || !cand.Correct {
		ok = false
		fmt.Fprintf(w, "  candidate failed %d of %d output checks\n", cand.Failed, cand.Attempted)
	}
	return ok, nil
}

// appendHistory adds the result to the ledger as one line, the same
// object result.json holds; its provenance carries the commit.
func appendHistory(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
