package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/dispatch"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// calibCLI calls run in-process the way main does, returning stdout.
func calibCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

// sweepInto runs a with-sim bft-64 grid (s=8 and s=16, fixed windows)
// at the given saturation fractions over a 2-shard fleet into the
// persistent store at dir, the way cmd/sweep -shards -cache-dir does:
// the cells compute on the shards and land in the coordinator's store.
func sweepInto(t *testing.T, dir string, fracs ...float64) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		srv := httptest.NewServer(serve.New(serve.WithCache(sweep.NewCache())))
		defer srv.Close()
		addrs[i] = srv.URL
	}
	d, err := dispatch.New(addrs, dispatch.WithCache(st))
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Name:       "calib-mine",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{8, 16},
		Loads:      sweep.LoadSpec{Fracs: fracs},
		WithSim:    true,
		Budget:     sweep.Budget{Warmup: 2000, Measure: 10000, Seed: 1},
	}
	if _, err := d.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// reportJSON runs calib -store dir -json and decodes its report.
func reportJSON(t *testing.T, dir string) calib.Report {
	t.Helper()
	out, err := calibCLI("-store", dir, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep calib.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return rep
}

// TestMineReportAndCheck: mining a with-sim store reports its regions —
// the 50-75% pairqueue band the trust-gated plan operates in among them
// — with finite MAPE, as JSON and as a table; -check passes; and cells
// that land in the store later show up in the next run's report.
func TestMineReportAndCheck(t *testing.T) {
	dir := t.TempDir()
	// Two loads inside the 50-75% band, one below, one above.
	sweepInto(t, dir, 0.3, 0.6, 0.7, 0.95)

	rep := reportJSON(t, dir)
	if rep.Pairs < 2 || len(rep.Regions) < 2 {
		t.Errorf("first mining: %d pair(s) across %d region(s), want >= 2 of each", rep.Pairs, len(rep.Regions))
	}
	for _, r := range rep.Regions {
		if math.IsNaN(r.MAPE) || math.IsInf(r.MAPE, 0) {
			t.Errorf("region %s has non-finite MAPE", r.Name)
		}
	}
	if out, err := calibCLI("-store", dir); err != nil || !strings.Contains(out, "bft-64/s=8/pairqueue/50-75%") {
		t.Errorf("the plan's operating region is not in the report: %v\n%s", err, out)
	}
	if out, err := calibCLI("-store", dir, "-check"); err != nil || !strings.Contains(out, "calibration ok") {
		t.Errorf("-check on a mined store: %q, %v", out, err)
	}

	sweepInto(t, dir, 0.5) // lands while no calib run is looking
	if next := reportJSON(t, dir); next.Pairs <= rep.Pairs {
		t.Errorf("after a later sweep the report holds %d pair(s), want more than the %d before", next.Pairs, rep.Pairs)
	}
}

func TestCheckRejectsEmptyMapAndNoInput(t *testing.T) {
	if _, err := calibCLI("-store", t.TempDir(), "-check"); err == nil || !strings.Contains(err.Error(), "no regions") {
		t.Errorf("-check on an empty store: err = %v", err)
	}
	if _, err := calibCLI(); err == nil || !strings.Contains(err.Error(), "nothing to do") {
		t.Errorf("no arguments: err = %v", err)
	}
}

// TestMissingStoreIsAnError: a -store path that does not exist is a
// mistyped path, not an empty store — the run fails naming it and leaves
// no directory behind.
func TestMissingStoreIsAnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "no-such-store")
	for _, args := range [][]string{{"-store", dir}, {"-store", dir, "-check"}} {
		out, err := calibCLI(args...)
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("%v: err = %v, want one naming %s", args, err, dir)
		}
		if out != "" {
			t.Errorf("%v: a rejected invocation printed a report: %q", args, out)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%v: the run left %s behind (stat: %v)", args, dir, err)
		}
	}
}
