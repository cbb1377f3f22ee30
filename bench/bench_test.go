package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesLedger keeps BENCHMARK.json and the metric tables
// in ledger.go in step: same workloads and reasons, same names, units,
// directions and bounds, in the same order.
func TestManifestMatchesLedger(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the ledger %d", len(m.Workloads), len(workloadOrder))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the ledger %q (%q)", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
	}
	e2e, layers := endToEnd(), perLayer()
	if len(m.EndToEnd) != len(e2e) || len(m.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the ledger %d+%d", len(m.EndToEnd), len(m.PerLayer), len(e2e), len(layers))
	}
	for i, e := range m.EndToEnd {
		d := e2e[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the ledger has %+v", i, e, d)
		}
	}
	for i, p := range m.PerLayer {
		d := layers[i]
		if p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the ledger has %+v", i, p, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// driverMetrics is the metrics object of the driver's line.
type driverMetrics map[string]struct {
	Value float64
	Unit  string
}

// decodeDriverLine checks that line is one JSON object with exactly the
// keys correct, attempted, failed and metrics, and returns them.
func decodeDriverLine(t *testing.T, line string) (correct bool, attempted, failed int, metrics driverMetrics) {
	t.Helper()
	var out struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   driverMetrics
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("not the driver's JSON object: %v\n%s", err, line)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil || out.Metrics == nil {
		t.Fatalf("line lacks one of correct, attempted, failed, metrics: %s", line)
	}
	return *out.Correct, *out.Attempted, *out.Failed, out.Metrics
}

func checkNames(t *testing.T, got driverMetrics, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", name)
		}
		unit, declared := want[name]
		if !declared {
			t.Errorf("emitted %s, which BENCHMARK.json does not declare", name)
		}
		if m.Unit != unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v, want a finite value", name, m.Value)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which was not emitted", name)
		}
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload once at CI size,
// traced. The driver's line for an untraced run of each workload must
// carry exactly the end-to-end metrics BENCHMARK.json declares, none of
// them 0, and for a traced run exactly the per-layer ones, every value
// finite and every output check passing.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	e2e := make(map[string]string)
	for _, e := range m.EndToEnd {
		e2e[e.Name] = e.Unit
	}
	layers := make(map[string]string)
	for _, p := range m.PerLayer {
		layers[p.Name] = p.Unit
	}
	res, err := run(context.Background(), config{smoke: true, seed: 1, trace: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d failed of %d: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
	}
	for _, w := range m.Workloads {
		line, err := driverLine(res, config{workload: w.Name})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, metrics := decodeDriverLine(t, line)
		checkNames(t, metrics, e2e)
		for name, v := range metrics {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
			}
		}
		if line, err = driverLine(res, config{workload: w.Name, trace: true}); err != nil {
			t.Fatal(err)
		}
		_, _, _, metrics = decodeDriverLine(t, line)
		checkNames(t, metrics, layers)
	}
}

// TestCorruptedRowFails perturbs one row of every checked pass: the
// command must count the failures, say so on its last line and exit
// non-zero.
func TestCorruptedRowFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := execute(config{workload: wlModel, smoke: true, seed: 1, corrupt: true, outDir: t.TempDir()}, "", &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	correct, attempted, failed, _ := decodeDriverLine(t, lines[len(lines)-1])
	if status == 0 || correct || failed == 0 || failed >= attempted {
		t.Errorf("status %d, correct %v, %d failed of %d; want a non-zero status and a fail ratio in (0, 1)\nstderr: %s",
			status, correct, failed, attempted, stderr.String())
	}
}

// TestQuartilesMatchPython pins summarize to the values Python's
// statistics.quantiles(values, n=4) and statistics.median return.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in             []float64
		median, q1, q3 float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
	} {
		median, q1, q3 := summarize(tc.in)
		if median != tc.median || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("summarize(%v) = %v, %v, %v; want %v, %v, %v", tc.in, median, q1, q3, tc.median, tc.q1, tc.q3)
		}
	}
}

// TestAttributeSplitsOverlap checks the wall-clock attribution on a
// hand-made trace: a 100 us root whose two children overlap for 20 us.
func TestAttributeSplitsOverlap(t *testing.T) {
	events := []obs.Event{
		{Trace: "t", Span: "root", Name: "bench.pass", StartUS: 0, DurUS: 100},
		{Trace: "t", Span: "a", Parent: "root", Name: "eval.cell", StartUS: 10, DurUS: 40},
		{Trace: "t", Span: "b", Parent: "root", Name: "sim.run", StartUS: 30, DurUS: 50},
	}
	sum := attribute(events, 1, 110)
	want := map[string]float64{"bench": 30, "eval": 30, "sim": 40, "untracked": 10}
	for _, l := range sum.Layers {
		if math.Abs(l.SelfMS*1e3-want[l.Layer]) > 1e-9 {
			t.Errorf("layer %s gets %v us, want %v", l.Layer, l.SelfMS*1e3, want[l.Layer])
		}
		delete(want, l.Layer)
	}
	if len(want) != 0 {
		t.Errorf("layers missing from the table: %v", want)
	}
	if got := sum.selfUS["bench.pass"]; got != 30 {
		t.Errorf("plain self time of the root = %v us, want 30 (100 minus the 70 its children cover)", got)
	}
}

// TestJudge walks the four verdicts of -compare.
func TestJudge(t *testing.T) {
	def := metricDef{name: "cells_per_s", better: "higher", bound: 0.08}
	base := row{Median: 100, Q1: 99, Q3: 101, N: 30}
	for _, tc := range []struct {
		cand row
		want string
	}{
		{row{Median: 110, Q1: 109, Q3: 111, N: 30}, verdictBetter},
		{row{Median: 110, Q1: 110, Q3: 110, N: 1}, verdictWithin},
		{row{Median: 97, Q1: 96, Q3: 98, N: 30}, verdictWithin},
		{row{Median: 85, Q1: 84, Q3: 86, N: 30}, verdictRegression},
		{row{Median: 85, Q1: 80, Q3: 100, N: 30}, verdictUnresolved},
	} {
		if got := judge(def, base, tc.cand); got != tc.want {
			t.Errorf("judge(%v) = %s, want %s", tc.cand, got, tc.want)
		}
	}
}
