// Command trace records, replays and summarises deterministic arrival
// traces (internal/workload's NDJSON format).
//
// Usage:
//
//	trace record -o burst.ndjson -n 512 -flits 16 -load 0.1 \
//	    -workload '{"process":"mmpp","on_frac":0.25,"burst_cycles":200}'
//	trace replay -trace burst.ndjson
//	trace stats  -trace burst.ndjson -top 8
//
// record runs one simulation with a recorder attached and writes every
// accepted arrival (source, pre-drawn destination, continuous arrival
// cycle) plus a header holding the full recording recipe — topology,
// message length, windows, seed, policy. Recording does not perturb the
// run: the recorded Result is bit-identical to an unrecorded one.
//
// replay rebuilds the configuration from the trace header and feeds the
// recorded arrivals back to the engine; the replayed Result is
// bit-identical to the recording run's. -result-out (on both record and
// replay) writes the Result in a canonical text form, so bit-identity is
// a file diff.
//
// stats prints summary statistics as JSON: event count, span, mean rate,
// pooled interarrival SCV (≈1 Poisson, >1 bursty), and the most-hit
// destinations.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() { cliutil.Main("trace", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: trace record|replay|stats [flags] (run 'trace <cmd> -h' for flags)")
	}
	switch args[0] {
	case "record":
		return record(ctx, args[1:], stdout, stderr)
	case "replay":
		return replay(ctx, args[1:], stdout, stderr)
	case "stats":
		return stats(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want record, replay or stats)", args[0])
	}
}

// bench is the machine-readable timing line -json emits.
type bench struct {
	Mode         string  `json:"mode"`
	Events       int     `json:"events"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// finish writes the Result to -result-out (when given) and prints the
// run: the timing line with -json, the Result otherwise.
func finish(stdout io.Writer, resOut string, jsonOut bool, b bench, res *sim.Result) error {
	if resOut != "" {
		// Canonical text form: %+v spells NaN literally, so bit-identity
		// between a recording and its replay is a plain file diff.
		if err := os.WriteFile(resOut, []byte(fmt.Sprintf("%+v\n", *res)), 0o644); err != nil {
			return err
		}
	}
	if jsonOut {
		return json.NewEncoder(stdout).Encode(b)
	}
	fmt.Fprintf(stdout, "%s: %d events in %.2fs (%.0f events/sec)\n", b.Mode, b.Events, b.ElapsedSec, b.EventsPerSec)
	fmt.Fprintln(stdout, res.String())
	return nil
}

func record(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("trace record", stderr)
	var (
		out     = fs.String("o", "", "output trace path (required)")
		n       = fs.Int("n", 64, "number of processors (power of four)")
		cube    = fs.Int("cube", 0, "record on a binary hypercube of this many dimensions instead")
		flits   = fs.Int("flits", 16, "message length in flits")
		load    = fs.Float64("load", 0.05, "offered load (flits/cycle per processor)")
		warmup  = fs.Int("warmup", 4000, "warmup cycles")
		measure = fs.Int("measure", 20000, "measurement cycles")
		seed    = fs.Uint64("seed", 1, "random seed")
		policy  = fs.String("policy", "pairqueue", "up-link policy: pairqueue or randomfixed")
		wlJSON  = fs.String("workload", "", "workload spec as JSON (empty = steady uniform Poisson)")
		resOut  = fs.String("result-out", "", "write the recording run's Result to this file")
		jsonOut = fs.Bool("json", false, "print a machine-readable timing line instead of the Result")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("trace record: -o is required")
	}

	var net topology.Network
	var family string
	var err error
	if *cube > 0 {
		net, err = topology.NewHypercube(*cube)
		family = "hypercube"
	} else {
		net, err = topology.NewFatTree(*n)
		family = "fattree"
	}
	if err != nil {
		return err
	}
	pol, err := sim.ParsePolicy(*policy)
	if err != nil {
		return err
	}

	cfg := sim.Config{
		Net:           net,
		MsgFlits:      *flits,
		Seed:          *seed,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Policy:        pol,
	}.FlitLoad(*load)
	if *wlJSON != "" {
		var wl workload.Spec
		if err := sweep.DecodeStrict([]byte(*wlJSON), &wl); err != nil {
			return fmt.Errorf("decoding -workload: %w", err)
		}
		cfg.Workload = &wl
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	tr := &workload.Trace{Header: workload.TraceHeader{
		Family:   family,
		Size:     net.NumProcessors(),
		MsgFlits: cfg.MsgFlits,
		Lambda0:  cfg.Lambda0,
		Warmup:   cfg.WarmupCycles,
		Measure:  cfg.MeasureCycles,
		Seed:     cfg.Seed,
		Policy:   cfg.Policy.String(),
		Workload: cfg.Workload.Canonical(),
	}}
	cfg.Recorder = func(src, dst int, cycle float64) {
		tr.Events = append(tr.Events, workload.TraceEvent{
			Src: src, Dst: dst, Cycle: cycle, MsgFlits: cfg.MsgFlits,
		})
	}

	start := time.Now()
	res, err := sim.Run(ctx, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return finish(stdout, *resOut, *jsonOut, bench{
		Mode: "record", Events: len(tr.Events),
		ElapsedSec: elapsed, EventsPerSec: float64(len(tr.Events)) / elapsed,
	}, res)
}

// netFromHeader rebuilds the recording run's network.
func netFromHeader(h workload.TraceHeader) (topology.Network, error) {
	switch h.Family {
	case "fattree", "bft":
		return topology.NewFatTree(h.Size)
	case "hypercube":
		if h.Size < 2 || bits.OnesCount(uint(h.Size)) != 1 {
			return nil, fmt.Errorf("trace: hypercube size %d is not a power of two", h.Size)
		}
		return topology.NewHypercube(bits.TrailingZeros(uint(h.Size)))
	default:
		return nil, fmt.Errorf("trace: unknown family %q in header", h.Family)
	}
}

func loadTrace(path string) (*workload.Trace, error) {
	if path == "" {
		return nil, errors.New("-trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

func replay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("trace replay", stderr)
	var (
		path    = fs.String("trace", "", "trace file to replay (required)")
		resOut  = fs.String("result-out", "", "write the replayed Result to this file")
		jsonOut = fs.Bool("json", false, "print a machine-readable timing line instead of the Result")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	h := tr.Header

	net, err := netFromHeader(h)
	if err != nil {
		return err
	}
	pol, err := sim.ParsePolicy(h.Policy)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Net:           net,
		MsgFlits:      h.MsgFlits,
		Lambda0:       h.Lambda0,
		Seed:          h.Seed,
		WarmupCycles:  h.Warmup,
		MeasureCycles: h.Measure,
		DrainLimit:    h.DrainLimit,
		Policy:        pol,
		Trace:         tr,
	}

	start := time.Now()
	res, err := sim.Run(ctx, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	return finish(stdout, *resOut, *jsonOut, bench{
		Mode: "replay", Events: len(tr.Events),
		ElapsedSec: elapsed, EventsPerSec: float64(len(tr.Events)) / elapsed,
	}, res)
}

func stats(args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("trace stats", stderr)
	var (
		path = fs.String("trace", "", "trace file to summarise (required)")
		top  = fs.Int("top", 8, "number of top destinations to list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	return cliutil.DumpJSON(stdout, struct {
		Header workload.TraceHeader `json:"header"`
		Stats  workload.TraceStats  `json:"stats"`
	}{tr.Header, tr.Stats(*top)})
}
