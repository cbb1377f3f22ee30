package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepCLI calls run in-process the way main does, returning stdout.
func sweepCLI(args ...string) (string, error) {
	stdout, _, err := sweepCLIBoth(args...)
	return stdout, err
}

// sweepCLIBoth is sweepCLI returning stderr too.
func sweepCLIBoth(args ...string) (string, string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// fleet starts n fresh sweep servers and returns their addresses in
// -shards form.
func fleet(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(serve.New(serve.WithCache(sweep.NewCache())))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return strings.Join(addrs, ",")
}

// TestTransportsMatchInProcess: every way the flags can route a grid —
// in-process, -shards over one server (a fleet of one) and over three,
// with and without a range bound — prints the same -json document. (The
// library-level figure3 parity is TestRemoteParityFigure3 and
// TestDispatchedFigure3MatchesInProcess; this pins the flag wiring.)
func TestTransportsMatchInProcess(t *testing.T) {
	base := []string{"-spec", "builtin:figure3-small", "-quiet", "-json"}
	want, err := sweepCLI(base...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, `"sim_latency"`) {
		t.Fatalf("reference run carries no simulated cells:\n%s", want)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"one-shard", []string{"-shards", fleet(t, 1)}},
		{"shards", []string{"-shards", fleet(t, 3)}},
		{"shards-batch", []string{"-shards", fleet(t, 3), "-batch", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := sweepCLI(append(base, tc.args...)...)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("diverged from the in-process run:\n--- in-process\n%s\n--- %s\n%s", want, tc.name, got)
			}
		})
	}
}

// TestFleetRunPrintsProgress: progress lives on the engine, so a -shards
// run narrates per cell exactly as a local one does — the same cells,
// counted 1/N … N/N in completion order — and a repeated spec reports its
// cells cached.
func TestFleetRunPrintsProgress(t *testing.T) {
	progress := regexp.MustCompile(`(?m)^sweep: (\d+)/8 (\S.* load=\S+)( \[cached\])?$`)
	cells := func(stderr string) (fresh, cached []string) {
		for i, m := range progress.FindAllStringSubmatch(stderr, -1) {
			if want := i%8 + 1; m[1] != strconv.Itoa(want) {
				t.Errorf("progress line %d counts %s/8, want %d/8", i, m[1], want)
			}
			if m[3] == "" {
				fresh = append(fresh, m[2])
			} else {
				cached = append(cached, m[2])
			}
		}
		sort.Strings(fresh)
		sort.Strings(cached)
		return fresh, cached
	}
	_, local, err := sweepCLIBoth("-spec", "builtin:figure3-small")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cells(local)
	if len(want) != 8 {
		t.Fatalf("local run printed %d progress line(s), want 8:\n%s", len(want), local)
	}
	_, fleetErr, err := sweepCLIBoth("-spec", "builtin:figure3-small", "-spec", "builtin:figure3-small", "-shards", fleet(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	fresh, cached := cells(fleetErr)
	if !reflect.DeepEqual(fresh, want) || !reflect.DeepEqual(cached, want) {
		t.Errorf("-shards progress differs from the local run's:\n--- local\n%s\n--- -shards (two passes)\n%s", local, fleetErr)
	}
	if !strings.Contains(fleetErr, "sweep: dispatch: 8 cell(s)") || !strings.Contains(fleetErr, "8 cached") {
		t.Errorf("dispatch summary line missing or miscounted:\n%s", fleetErr)
	}
}

// TestResizedFleetKeepsItsStore: a cell is stored under Scenario.Key
// whoever computed it, so a -cache-dir filled through two shards is all
// hits through three other ones, and through no fleet at all.
func TestResizedFleetKeepsItsStore(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-spec", "builtin:figure3-small", "-quiet", "-cache-dir", dir}
	out, err := sweepCLI(append(base, "-shards", fleet(t, 2))...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "8 computed, 0 cached") {
		t.Fatalf("a fresh directory did not compute the grid:\n%s", out)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"three shards", []string{"-shards", fleet(t, 3)}},
		{"one shard", []string{"-shards", fleet(t, 1)}},
		{"in process", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := sweepCLI(append(base, tc.args...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "0 computed, 8 cached") {
				t.Errorf("the two-shard fleet's cells were not all hits:\n%s", out)
			}
		})
	}
}

func TestFlagConflictsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"addr+shards", []string{"-spec", "builtin:figure3-small", "-addr", "a:1", "-shards", "b:1"}, "flag provided but not defined: -addr"},
		{"batch alone", []string{"-spec", "builtin:figure3-small", "-batch", "8"}, "-batch needs -shards"},
		{"workers+shards", []string{"-spec", "builtin:figure3-small", "-shards", "b:1", "-workers", "2"}, "-workers does not apply"},
		{"no spec", nil, "no -spec given"},
		{"bad backend", []string{"-spec", "builtin:figure3-small", "-backend", "oracle"}, "unknown backend"},
		{"unknown flag", []string{"-nope"}, "not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := sweepCLI(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.want)
			}
			if out != "" {
				t.Errorf("a rejected invocation printed to stdout: %q", out)
			}
		})
	}
}

// TestStreamEmitsExactlyTheGrid: -stream prints one JSON line per cell,
// the same cells -json reports, in-process and dispatched.
func TestStreamEmitsExactlyTheGrid(t *testing.T) {
	base := []string{"-spec", "builtin:figure3-small", "-quiet"}
	doc, err := sweepCLI(append(base, "-json")...)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal([]byte(doc), &results); err != nil || len(results) != 1 {
		t.Fatalf("decoding -json output: %v (%d results)", err, len(results))
	}
	var want []string
	for _, raw := range results[0].Rows {
		var line bytes.Buffer
		if err := json.Compact(&line, raw); err != nil {
			t.Fatal(err)
		}
		want = append(want, line.String())
	}
	sort.Strings(want)
	for _, mode := range [][]string{nil, {"-shards", fleet(t, 3)}} {
		out, err := sweepCLI(append(append(base, "-stream"), mode...)...)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("-stream %v emitted %d line(s), want the grid's %d cell(s):\n%s", mode, len(got), len(want), out)
		}
	}
}

// TestFailedRunKeepsItsEvidence: a sweep that fails mid-grid or hits
// -timeout still returns through its deferred closes — the trace ends
// on a complete line and holds the sweep.run span (the tracer buffers
// up to 64 KB, so an exit that skipped the close would cut it), and the
// store reopens with every cell that completed.
func TestFailedRunKeepsItsEvidence(t *testing.T) {
	// Two bft-64 cells complete, then the first bft-16 cell fails inside
	// the simulator: node 40 does not exist on 16 processors.
	failing := filepath.Join(t.TempDir(), "fails-midway.json")
	if err := os.WriteFile(failing, []byte(`{
		"name": "fails-midway",
		"topologies": [{"family": "bft", "sizes": [64, 16]}],
		"msg_flits": [8],
		"loads": {"fracs": [0.3, 0.6]},
		"workloads": [{"name": "hot40", "pattern": "hotspot", "hot": [40], "hot_frac": 0.2}],
		"with_sim": true,
		"budget": {"warmup": 500, "measure": 2000, "seed": 1}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		args      []string
		wantErr   string
		wantCells int // completed cells the store must hold; -1 = however many finished
	}{
		{"fails mid-sweep", []string{"-spec", failing, "-workers", "1"}, "out of range for 16 processors", 2},
		{"timeout", []string{"-spec", "builtin:figure3", "-timeout", "1ms"}, context.DeadlineExceeded.Error(), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			trace, cache := filepath.Join(dir, "trace.ndjson"), filepath.Join(dir, "store")
			_, err := sweepCLI(append(tc.args, "-quiet", "-trace-out", trace, "-cache-dir", cache)...)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}

			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(data, []byte("}\n")) {
				t.Errorf("trace does not end on a complete line: %q", data[max(0, len(data)-80):])
			}
			events, err := obs.ReadEvents(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			found := false
			for _, ev := range events {
				found = found || ev.Name == "sweep.run"
			}
			if !found {
				t.Errorf("trace of %d event(s) has no sweep.run span", len(events))
			}

			st, err := store.Open(cache)
			if err != nil {
				t.Fatalf("store does not reopen: %v", err)
			}
			defer st.Close()
			if st.Dropped() != 0 {
				t.Errorf("store reopened with %d torn line(s)", st.Dropped())
			}
			if tc.wantCells >= 0 && st.Len() != tc.wantCells {
				t.Errorf("store reopened with %d cell(s), want the %d that completed", st.Len(), tc.wantCells)
			}
		})
	}
}

// TestBoundsWithinTenTimesModel keeps the bound backend's cost margin:
// figure3 with -backend model,bounds must finish within 10x of -backend
// model, best of 3 each, cold caches both (the ledger's
// bounds.over_model_ratio and eval.bounds_evaluate_us record the
// actual figures; this only catches an order-of-magnitude regression).
func TestBoundsWithinTenTimesModel(t *testing.T) {
	best := func(backend string) time.Duration {
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := sweepCLI("-spec", "builtin:figure3", "-backend", backend, "-quiet"); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	model, bounds := best("model"), best("model,bounds")
	t.Logf("figure3: model %v, model+bounds %v (%.1fx)", model, bounds, float64(bounds)/float64(model))
	if bounds > 10*model {
		t.Errorf("model,bounds took %v, more than 10x the model-only %v", bounds, model)
	}
}
