// Command plan runs capacity-planner searches: a JSON plan spec (or a
// built-in named question) describing a design space, an objective and
// constraints is searched with the model-guided optimizer — coarse
// analytic prune, per-candidate bisection on the load axis, Pareto
// frontier over (cost, latency, sustainable load), simulator
// certification of the frontier — and rendered as a table, JSON, or an
// NDJSON update stream. See docs/plan.md.
//
// Usage:
//
//	plan -spec builtin:bft-capacity              # a built-in question
//	plan -spec my-question.json -json            # custom spec, JSON out
//	plan -spec builtin:bft-capacity -stream      # NDJSON updates
//	plan -spec builtin:bft-capacity -timeout 60s # bounded wall clock
//	plan -list                                   # show built-in plans
//	plan -dumpspec builtin:cheapest-sla          # print a spec as JSON
//	plan -spec builtin:bft-capacity -shards :8713,:8714
//	                                             # search over a sweepd fleet
//	plan -spec builtin:bft-capacity -cache-dir d # persistent result cache
//	plan -spec builtin:bft-capacity -trace-out t.ndjson   # NDJSON span trace
//	plan -spec builtin:calibrated-capacity -cache-dir d
//	                                             # trust-gated certification
//
// Progress streams to stderr; results go to stdout. The search always
// runs in this process, and its bisection probes are answered on its own
// in-process model. With -shards every cell the plan reports executes on
// the named sweepd fleet: the coarse grid is dispatched as contiguous
// ranges (work stealing, shard failover) and the operating points and
// certifications rotate per-cell with retry, all warming the cache lines
// a local run reads and writes.
//
// A spec with a "calibration" section is trust-gated against the
// calibration map mined from -cache-dir when the search starts (see
// docs/calibration.md); without -cache-dir every region is
// uncalibrated and certification simulates as usual.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { cliutil.Main("plan", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (rerr error) {
	fs := cliutil.Flags("plan", stderr)
	var (
		specRef  = fs.String("spec", "", "spec file path or builtin:<name>")
		list     = fs.Bool("list", false, "list built-in plan specs and exit")
		dump     = fs.String("dumpspec", "", "print the named spec (file path or builtin:<name>) as JSON and exit")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON instead of a table")
		stream   = fs.Bool("stream", false, "emit NDJSON: one update line per search event")
		timeout  = fs.Duration("timeout", 0, "abort the search after this duration (0 = no deadline)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		backend  = fs.String("backend", "", "override spec backends: comma-separated subset of model,sim,bounds (empty = spec's own; omitting sim skips certification)")
		shards   = fs.String("shards", "", "evaluate the plan's grids, operating points and certifications on these sweepd shard(s), comma-separated")
		cacheDir = fs.String("cache-dir", "", "persist the result cache to this directory, and trust-gate a calibration spec on what it holds (empty = in-memory)")
		traceOut = fs.String("trace-out", "", "write NDJSON span traces to this file (see docs/observability.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range plan.Builtins() {
			s, _ := plan.Builtin(name)
			fmt.Fprintf(stdout, "%-20s %s\n", name, s.Description)
		}
		return nil
	}
	if *dump != "" {
		spec, err := cliutil.LoadSpec(*dump, plan.Builtin, plan.ParseSpec)
		if err != nil {
			return err
		}
		return cliutil.DumpJSON(stdout, spec)
	}
	if *specRef == "" {
		return errors.New("no -spec given (try -spec builtin:bft-capacity, or -list)")
	}
	spec, err := cliutil.LoadSpec(*specRef, plan.Builtin, plan.ParseSpec)
	if err != nil {
		return err
	}
	if *backend != "" {
		backends, err := cliutil.ParseBackends(*backend)
		if err != nil {
			return err
		}
		// "sim" toggles frontier certification; "bounds" asks every
		// refined candidate for its worst-case bound (a hard SLO in the
		// spec already implies it).
		spec.SkipCertify = true
		for _, b := range backends {
			switch b {
			case sweep.BackendSim:
				spec.SkipCertify = false
			case sweep.BackendBounds:
				spec.WithBounds = true
			}
		}
	}

	ctx, cancel := cliutil.Context(ctx, *timeout)
	defer cancel()

	if *traceOut != "" {
		tracer, closeTracer, err := cliutil.OpenTracer(*traceOut)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "closing trace", closeTracer)
		ctx = obs.WithTracer(ctx, tracer)
	}

	out := updateSink{stdout: stdout, stderr: stderr, stream: *stream, quiet: *quiet}
	res, err := search(ctx, spec, *shards, *cacheDir, out)
	if err != nil {
		return err
	}
	if *stream {
		return nil // updates already went to stdout
	}
	if *jsonOut {
		return cliutil.DumpJSON(stdout, res)
	}
	fmt.Fprint(stdout, res.Summary())
	fmt.Fprint(stdout, res.Table().String())
	return nil
}

// updateSink is where a search's update stream goes: NDJSON on stdout
// with -stream, progress lines on stderr otherwise (unless -quiet).
type updateSink struct {
	stdout, stderr io.Writer
	stream, quiet  bool
}

// search executes the plan in this process, its evaluations local or on
// a shard fleet, consuming the update stream for progress/-stream. A
// calibration spec over a store is gated by the map mined from it.
func search(ctx context.Context, spec plan.Spec, shards, cacheDir string, out updateSink) (res *plan.Result, rerr error) {
	var cache sweep.CacheStore
	var popts []plan.Option
	if cacheDir != "" {
		st, err := store.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		defer cliutil.CloseInto(&rerr, "closing store", st.Close)
		if !out.quiet {
			fmt.Fprintf(out.stderr, "plan: store: %d cell(s) recovered from %s\n", st.Recovered(), cacheDir)
		}
		cache = st
		if spec.Calibration != nil {
			m := calib.NewMap()
			m.Mine(ctx, st)
			popts = append(popts, plan.WithCalibration(m))
		}
	}

	var planner *plan.Planner
	if shards != "" {
		addrs, err := cliutil.ParseStrings(shards)
		if err != nil {
			return nil, err
		}
		engine, err := dispatch.New(addrs)
		if err != nil {
			return nil, err
		}
		engine.Cache = cache
		planner = plan.New(engine, popts...)
	} else {
		planner = plan.NewLocal(cache, popts...)
	}

	enc := json.NewEncoder(out.stdout)
	for u := range planner.Stream(ctx, spec) {
		if u.Err != nil {
			return nil, u.Err
		}
		if out.stream {
			if err := enc.Encode(u); err != nil {
				return nil, err
			}
		} else if !out.quiet {
			progress(out.stderr, u)
		}
		if u.Phase == plan.PhaseDone {
			res = u.Result
		}
	}
	if res == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("plan: stream ended without a result")
	}
	return res, nil
}

// progress renders one update as a progress line.
func progress(w io.Writer, u plan.Update) {
	c := u.Candidate
	switch u.Phase {
	case plan.PhasePrune:
		fmt.Fprintf(w, "plan: prune   %-26s %s\n", c.Key(), c.PruneReason)
	case plan.PhaseRefine:
		fmt.Fprintf(w, "plan: refine  %-26s max_load=%.6f (%d probes)\n", c.Key(), c.MaxLoad, c.Probes)
	case plan.PhaseCertify:
		verdict := "certified"
		if !c.Certified {
			verdict = "NOT certified"
			if c.CertifyNote != "" {
				verdict = c.CertifyNote
			}
		}
		fmt.Fprintf(w, "plan: certify %-26s sim=%.4f (%s)\n", c.Key(), c.Sim, verdict)
	case plan.PhaseFrontier:
		fmt.Fprintf(w, "plan: frontier %-25s cost=%.0f latency=%.4f max_load=%.6f\n",
			c.Key(), c.Cost, c.Latency, c.MaxLoad)
	}
}
