// Command obsreport analyzes NDJSON span traces written by -trace-out
// (cmd/sweep, cmd/plan, sweepd): it reassembles the span tree across
// however many files the fleet produced — coordinator plus every
// shard — and reports per-layer time, the critical path, cache hit
// ratio, planner decision counts and per-shard skew. With -check it
// validates well-formedness instead (every span parented, one root per
// trace) and exits non-zero on a torn tree — the cross-shard stitching
// gate. With -metrics it validates a /metrics scrape as parseable
// Prometheus text. See docs/observability.md.
//
// Usage:
//
//	obsreport trace.ndjson                  # human-readable report
//	obsreport coord.ndjson shard*.ndjson    # stitched multi-file report
//	obsreport -check coord.ndjson shard*.ndjson   # well-formedness gate
//	obsreport -json trace.ndjson            # the report as JSON
//	obsreport -metrics scrape.txt           # validate a /metrics scrape
//	cat trace.ndjson | obsreport -          # read from stdin
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/obs"
)

func main() { cliutil.Main("obsreport", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("obsreport", stderr)
	var (
		check   = fs.Bool("check", false, "validate trace well-formedness (stitched, single-rooted) and exit non-zero on failure")
		jsonOut = fs.Bool("json", false, "emit the report as JSON instead of text")
		metrics = fs.String("metrics", "", "validate this /metrics scrape as Prometheus text and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *metrics != "" {
		samples, err := parseMetricsFile(*metrics)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics ok: %d sample(s)\n", len(samples))
		return nil
	}

	paths := fs.Args()
	if len(paths) == 0 {
		return errors.New("no trace file given (pass one or more NDJSON files, or - for stdin)")
	}
	var events []obs.Event
	for _, path := range paths {
		evs, err := readTrace(path)
		if err != nil {
			return err
		}
		events = append(events, evs...)
	}

	if *check {
		f := obs.BuildForest(events)
		if err := obs.CheckForest(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace ok: %d trace(s), %d span(s), %d event(s), all stitched\n",
			len(f.Traces), len(f.Nodes), len(events))
		return nil
	}

	report := obs.Analyze(events)
	if *jsonOut {
		return cliutil.DumpJSON(stdout, report)
	}
	report.Format(stdout)
	return nil
}

// readTrace reads one trace file's events; "-" reads stdin.
func readTrace(path string) ([]obs.Event, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	evs, err := obs.ReadEvents(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// parseMetricsFile validates a Prometheus text-format scrape.
func parseMetricsFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := obs.ParseMetrics(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return samples, nil
}
