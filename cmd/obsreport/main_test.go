package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// reportCLI calls run in-process the way main does, returning stdout.
func reportCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

// tracedFleetRun dispatches figure3-small over two traced shards under
// a traced coordinator, the way cmd/sweep -shards -trace-out against two
// sweepd -trace-out daemons does, and returns the three flushed trace
// files (coordinator first) plus a /metrics scrape of the first shard.
func tracedFleetRun(t *testing.T) (traces []string, scrape string) {
	t.Helper()
	dir := t.TempDir()
	var closers []func() error
	open := func(name string) *obs.Tracer {
		path := filepath.Join(dir, name)
		tracer, closeTracer, err := cliutil.OpenTracer(path)
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, closeTracer)
		traces = append(traces, path)
		return tracer
	}
	coord := open("coord.ndjson")
	var addrs []string
	var shards []*httptest.Server
	for i := 1; i <= 2; i++ {
		tracer := open(fmt.Sprintf("shard%d.ndjson", i))
		srv := httptest.NewServer(serve.New(serve.WithCache(sweep.NewCache()), serve.WithTracer(tracer)))
		t.Cleanup(srv.Close)
		shards = append(shards, srv)
		addrs = append(addrs, srv.URL)
	}

	spec, err := sweep.Builtin("figure3-small")
	if err != nil {
		t.Fatal(err)
	}
	d, err := dispatch.New(addrs, dispatch.WithBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(obs.WithTracer(context.Background(), coord), spec); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(addrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scrape = filepath.Join(dir, "metrics.txt")
	if err := os.WriteFile(scrape, body, 0o644); err != nil {
		t.Fatal(err)
	}

	// The coordinator is done with a range at its last cell, which can be
	// before the shard has ended that request's span: wait for the
	// handlers (Close does) before flushing the shards' files.
	for _, srv := range shards {
		srv.Close()
	}
	for _, closeTracer := range closers {
		if err := closeTracer(); err != nil {
			t.Fatal(err)
		}
	}
	return traces, scrape
}

// TestStitchedFleetTrace: the coordinator's and both shards' trace
// files reassemble into one well-formed tree that -check accepts; a
// shard's file on its own — request spans whose parents live in the
// coordinator's file — is a forest of orphans that -check rejects; and
// the report over the stitched trace answers where the time went.
func TestStitchedFleetTrace(t *testing.T) {
	traces, scrape := tracedFleetRun(t)

	// Two traces: the whole dispatched run is one, the /metrics scrape
	// (its own root request span on shard 1) the other.
	out, err := reportCLI(append([]string{"-check"}, traces...)...)
	if err != nil || !strings.Contains(out, "trace ok: 2 trace(s)") {
		t.Errorf("-check on the stitched trace: %q, %v", out, err)
	}
	if out, err := reportCLI("-check", traces[1]); err == nil {
		t.Errorf("-check accepted a shard trace cut off from its coordinator: %q", out)
	}

	report, err := reportCLI(traces...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"per-layer time:", "cache:", "per-shard skew:",
		"dispatch.range", "eval.cell", "sim.run", "critical path:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report is missing %q:\n%s", want, report)
		}
	}
	if out, err := reportCLI(append([]string{"-json"}, traces...)...); err != nil || !strings.HasPrefix(out, "{") {
		t.Errorf("-json report: %v\n%.200s", err, out)
	}

	out, err = reportCLI("-metrics", scrape)
	if err != nil || !strings.Contains(out, "metrics ok:") {
		t.Errorf("-metrics on a real scrape: %q, %v", out, err)
	}
}

func TestRejectsBadInput(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.txt")
	if err := os.WriteFile(garbage, []byte("sim_runs_total not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no trace file given"},
		{[]string{"-metrics", garbage}, "bad value"},
		{[]string{"-check", garbage}, "garbage.txt"},
	} {
		if _, err := reportCLI(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
