package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

var listening = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startDaemon runs the daemon in-process on an OS-chosen port and
// returns the base URL it logged in its "listening" record — the only
// way to learn it — plus a stop function that cancels the daemon's
// context (what SIGTERM does under cliutil.Main) and returns run's
// result.
func startDaemon(t *testing.T, args ...string) (url string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	logR, logW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, logW)
		logW.Close()
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logR)
		for sc.Scan() { // keeps draining after the address, so the daemon never blocks on its log
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
		close(addr)
	}()
	stopped := false
	stop = func() error {
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down")
			return nil
		}
	}
	t.Cleanup(func() {
		if !stopped {
			stop()
		}
	})
	select {
	case a, ok := <-addr:
		if !ok {
			t.Fatalf("daemon exited before listening: %v", <-done)
		}
		return "http://" + a, stop
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never logged its listening record")
		return "", nil
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// resultJSON renders a sweep result without its cache provenance, so two
// runs compare byte for byte.
func resultJSON(t *testing.T, res *sweep.Result) string {
	t.Helper()
	cp := *res
	cp.CacheHits, cp.CacheMisses = 0, 0
	cp.Rows = append([]sweep.Row(nil), res.Rows...)
	for i := range cp.Rows {
		cp.Rows[i].Cached = false
	}
	out, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// remoteRun sweeps spec on the daemon at url through the one fleet door:
// a dispatcher with no cache of its own, so every cell and the grid's
// curve context come from the daemon.
func remoteRun(t *testing.T, url string, spec sweep.Spec) *sweep.Result {
	t.Helper()
	d, err := dispatch.New([]string{url})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// miningGrid is a with-sim bft-64 grid with two loads inside the
// 50-75%-of-saturation band (the region the trust-gated builtin plan
// operates in) plus one below and one above; fixed windows keep the
// simulator deterministic.
const miningGrid = `{
	"name": "calib-mine",
	"topologies": [{"family": "bft", "sizes": [64]}],
	"msg_flits": [8, 16],
	"loads": {"fracs": [0.3, 0.6, 0.7, 0.95]},
	"with_sim": true,
	"budget": {"warmup": 2000, "measure": 10000, "seed": 1}
}`

// TestDaemonEndToEnd drives one daemon with a persistent store and a
// tracer through its whole life: figure3 over the wire equals the
// in-process run, a warm rerun is served from the store, /metrics
// parses and carries the engine and HTTP series, the shard keeps no
// calibration map (no /v1/calib, no calibration block, no calib_
// series), and cancelling the context shuts it down clean — every cell
// in the store, whose pairs a fresh miner reads, trace flushed and
// well-formed.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cacheDir, tracePath := filepath.Join(dir, "store"), filepath.Join(dir, "trace.ndjson")
	url, stop := startDaemon(t, "-cache-dir", cacheDir, "-trace-out", tracePath)

	figure3, err := sweep.Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.NewRunner().Run(context.Background(), figure3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, remoteRun(t, url, figure3)), resultJSON(t, local); got != want {
		t.Errorf("figure3 through the daemon diverged from the in-process run:\n--- in-process\n%s\n--- daemon\n%s", want, got)
	}

	// A second client with a cold local cache: the daemon's store must
	// answer the whole grid.
	remoteRun(t, url, figure3)
	var health struct {
		CacheHits int64 `json:"cache_hits"`
	}
	getJSON(t, url+"/healthz", &health)
	if health.CacheHits < int64(len(local.Rows)) {
		t.Errorf("warm rerun not served from the store: cache_hits=%d, want >= %d", health.CacheHits, len(local.Rows))
	}

	mine, err := sweep.ParseSpec([]byte(miningGrid))
	if err != nil {
		t.Fatal(err)
	}
	mined := remoteRun(t, url, mine)

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseMetrics(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, want := range []string{"sim_runs_total", "sim_events_popped_total", "sweep_http_requests_total"} {
		found := false
		for name := range samples {
			found = found || strings.HasPrefix(name, want)
		}
		if !found {
			t.Errorf("/metrics carries no %s series", want)
		}
	}
	for name := range samples {
		if strings.HasPrefix(name, "calib_") {
			t.Errorf("/metrics carries a calibration series %s", name)
		}
	}
	calibResp, err := http.Get(url + "/v1/calib")
	if err != nil {
		t.Fatal(err)
	}
	calibResp.Body.Close()
	if calibResp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/calib: %s, want 404", calibResp.Status)
	}
	var healthz map[string]any
	getJSON(t, url+"/healthz", &healthz)
	if _, ok := healthz["calibration"]; ok {
		t.Errorf("/healthz carries a calibration block: %v", healthz["calibration"])
	}

	if err := stop(); err != nil {
		t.Fatalf("run returned %v after its context was cancelled, want nil", err)
	}

	cells, pairs, _ := storeEvidence(t, cacheDir)
	if want := len(local.Rows) + len(mined.Rows); cells != want {
		t.Errorf("the store reopened with %d cell(s), want the %d the daemon computed", cells, want)
	}
	if pairs < 2 {
		t.Errorf("a fresh miner over the store finds %d pair(s), want >= 2", pairs)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if err := obs.CheckForest(obs.BuildForest(events)); err != nil {
		t.Errorf("trace of %d event(s) is not well-formed: %v", len(events), err)
	}
}

// storeEvidence opens the store at dir once the daemon that owns it has
// stopped, and returns its live cells, the pairs a fresh calibration map
// mines from it, and its size on disk.
func storeEvidence(t *testing.T, dir string) (cells int, pairs int64, bytes int64) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := calib.NewMap()
	m.Mine(context.Background(), st)
	if bytes, err = st.DiskBytes(); err != nil {
		t.Fatal(err)
	}
	return st.Len(), m.Pairs(), bytes
}

// TestCalibrationForgetsPrunedCells: calibration is mined from the store,
// so after a restart that prunes sim-carrying cells a fresh miner finds
// only the pairs that survived — evicted cells stop counting.
func TestCalibrationForgetsPrunedCells(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "store")
	url, stop := startDaemon(t, "-cache-dir", cacheDir)
	mine, err := sweep.ParseSpec([]byte(miningGrid))
	if err != nil {
		t.Fatal(err)
	}
	remoteRun(t, url, mine)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	cells, pairs, size := storeEvidence(t, cacheDir)

	_, stop = startDaemon(t, "-cache-dir", cacheDir, "-cache-max-bytes", strconv.FormatInt(size/2, 10))
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	left, survived, _ := storeEvidence(t, cacheDir)
	if left >= cells || survived >= pairs || survived < 1 {
		t.Fatalf("the prune kept %d of %d cell(s) and %d of %d pair(s); want some of each evicted and a pair left", left, cells, survived, pairs)
	}
}

// dispatchFigure3Small starts two real daemons, every address read from
// a listening record, and has a dispatcher in this process — the process
// that asks coordinates, since every sweepd is a shard — take
// figure3-small to them in ranges of three. It returns the shards, the grid, the dispatched result
// and the in-process one.
func dispatchFigure3Small(t *testing.T) (shards []string, spec sweep.Spec, res, local *sweep.Result) {
	t.Helper()
	shards = make([]string, 2)
	for i := range shards {
		shards[i], _ = startDaemon(t)
	}
	spec, err := sweep.Builtin("figure3-small")
	if err != nil {
		t.Fatal(err)
	}
	if local, err = sweep.NewRunner().Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	d, err := dispatch.New(shards, dispatch.WithBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = d.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Cells != int64(len(local.Rows)) || st.ShardFailures != 0 {
		t.Fatalf("the fleet computed %d of %d cells with %d failure(s)", st.Cells, len(local.Rows), st.ShardFailures)
	}
	return shards, spec, res, local
}

// TestDispatchedGridEqualsInProcess: the process that asks coordinates
// the fleet, and two daemons serving it as shards answer figure3-small
// as the in-process run does.
func TestDispatchedGridEqualsInProcess(t *testing.T) {
	_, _, res, local := dispatchFigure3Small(t)
	if got, want := resultJSON(t, res), resultJSON(t, local); got != want {
		t.Errorf("figure3-small over two daemons diverged from the in-process run:\n--- in-process\n%s\n--- shards\n%s", want, got)
	}
}

// TestDispatchedCellsAreEvalHits: a shard's range cells and its
// /v1/eval share one cache and key space, so each dispatched cell is a
// hit on exactly the shard that computed it, and the other shard,
// computing it afresh, answers the same bytes.
func TestDispatchedCellsAreEvalHits(t *testing.T) {
	shards, spec, _, _ := dispatchFigure3Small(t)
	scens, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ask := func(url string, sc sweep.Scenario) (point, xcache string) {
		t.Helper()
		probe, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(string(probe)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/v1/eval: %s, %v", url, resp.Status, err)
		}
		return string(data), resp.Header.Get("X-Cache")
	}
	for _, sc := range scens {
		first, hit1 := ask(shards[0], sc)
		second, hit2 := ask(shards[1], sc)
		if (hit1 == "hit") == (hit2 == "hit") {
			t.Errorf("cell %d: X-Cache %q and %q on the two shards, want a hit on exactly the one that computed it", sc.Index, hit1, hit2)
		}
		if first != second {
			t.Errorf("cell %d: the shards answer\n%s\nand\n%s", sc.Index, first, second)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-compact"}, "-compact needs -cache-dir"},
		{[]string{"-cache-max-bytes", "1000"}, "-cache-max-bytes needs -cache-dir"},
		{[]string{"-prune-interval", "1s"}, "-prune-interval needs -cache-dir"},
		{[]string{"-log-level", "loud"}, "bad -log-level"},
		// A sweepd is a shard: there is no front-end mode to configure.
		{[]string{"-shards", "a:1"}, "flag provided but not defined: -shards"},
		{[]string{"-batch", "3"}, "flag provided but not defined: -batch"},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
