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
	"reflect"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/dispatch"
	"repro/internal/eval"
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

// dirBytes reads every file of dir, by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestReadsAStoreBeingWritten: a shard keeps no calibration map, so an
// operator reads its calibration with calib -store on the directory the
// shard's open store is still writing. The report is the pairs a fresh
// miner finds in the flushed cells; a line still being appended — half a
// record past the writer's offset — reads as a dropped line; not a byte
// of the directory changes; and the writer goes on, its next record
// landing where its own write would have ended.
func TestReadsAStoreBeingWritten(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	topo := eval.Topology{Family: eval.FamilyBFT, Size: 64}
	put := func(msgFlits int, fracs ...float64) {
		t.Helper()
		sat, err := eval.NewAnalyticBackend().SaturationLoad(topo, msgFlits)
		if err != nil {
			t.Fatal(err)
		}
		var (
			curve  string
			tokens []eval.Token
			cells  []eval.Point
		)
		for i, frac := range fracs {
			sc := eval.Scenario{
				Topology: topo, MsgFlits: msgFlits, LoadIndex: i,
				Load: eval.Load{Frac: true, Value: frac}, WithSim: true,
				Budget: eval.Budget{Warmup: 100, Measure: 200, Seed: 1},
			}
			curve = string(sc.AppendCurveKey(nil, ""))
			pt := eval.NewPoint()
			pt.LoadFlits, pt.Model, pt.Sim = frac*sat, 100+10*frac, 100
			tokens, cells = append(tokens, sc.Token()), append(cells, pt)
		}
		st.PutCurve(curve, tokens, cells)
	}
	put(8, 0.3, 0.6, 0.7)
	put(16, 0.6, 0.95)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	want := calib.NewMap()
	if n := want.Mine(ctx, st); n != 5 {
		t.Fatalf("the flushed cells mine to %d pair(s), want 5", n)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	record, _, _ := bytes.Cut(data, []byte("\n"))
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(record[:len(record)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirBytes(t, dir)
	got := reportJSON(t, dir)
	wantJSON, err := json.Marshal(want.Report())
	if err != nil {
		t.Fatal(err)
	}
	var wantRep calib.Report
	if err := json.Unmarshal(wantJSON, &wantRep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantRep) {
		t.Errorf("calib -store on an open store reports\n%+v\nwant a fresh miner's\n%+v", got, wantRep)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("calib -store changed the directory: %d file(s) before, %d after", len(before), len(after))
	}

	put(16, 0.7)
	if err := st.Flush(); err != nil {
		t.Fatalf("the writer's next flush: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("the writer's close: %v", err)
	}
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n, dropped := reopened.Len(), reopened.Dropped(); n != 6 || dropped != 0 {
		t.Errorf("the written directory reopens with %d cell(s) and %d dropped line(s), want 6 and 0", n, dropped)
	}
}
