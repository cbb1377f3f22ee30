// Command sweep runs declarative scenario sweeps: a JSON spec (or a
// built-in named spec) describing a grid of topology × message length ×
// policy × variant × load scenarios is expanded, executed on a bounded
// worker pool through the Evaluator backends, and rendered as a table or
// JSON. Repeating -spec runs several sweeps in one process against a
// shared result cache, so overlapping grids report cache hits instead of
// recomputing cells.
//
// Usage:
//
//	sweep -spec builtin:figure3                  # a paper grid by name
//	sweep -spec my-grid.json -json               # a custom grid, JSON out
//	sweep -spec builtin:figure3 -stream          # NDJSON, one cell per line
//	sweep -spec builtin:figure3 -timeout 30s     # bounded wall clock
//	sweep -spec builtin:figure3 -spec builtin:figure3   # 2nd run: all cached
//	sweep -list                                  # show built-in specs
//	sweep -dump builtin:table2                   # print a spec as JSON
//	sweep -spec builtin:figure3 -shards :8713    # evaluate on a sweepd server
//	sweep -spec builtin:figure3 -shards :8713,:8714,:8715   # … or on a fleet
//	sweep -spec builtin:figure3 -cache-dir d     # persistent result store
//	sweep -spec builtin:figure3 -backend model,bounds   # add worst-case bounds
//	sweep -spec builtin:figure3 -trace-out t.ndjson   # NDJSON span trace
//
// Progress streams to stderr; results go to stdout. With -stream each
// cell is emitted as one JSON line the moment it completes (completion
// order, not grid order); without it, results render after each sweep
// finishes. -timeout wires a deadline into the sweep's context — the
// simulator aborts mid-cycle-loop when it expires.
//
// With -shards the grid is still expanded (and cached) locally, but its
// cold cells are computed by the named sweepd server(s) — one address is
// a fleet of one: the grid is partitioned into contiguous ranges, each
// range dispatched whole to a shard (specs cross the wire, cells do
// not), failed or slow shards' remainders are stolen by the survivors,
// and the result is the one an in-process run reports (see
// docs/dispatch.md; -batch bounds the range size). This process
// coordinates the fleet; the servers are plain shards. With -cache-dir
// the result cache is a persistent store: a rerun in a fresh process
// serves every previously computed cell from disk.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cliutil"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { cliutil.Main("sweep", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (rerr error) {
	fs := cliutil.Flags("sweep", stderr)
	var specs []string
	fs.Func("spec", "spec file path or builtin:<name>; repeat to run several sweeps against one cache", func(v string) error {
		specs = append(specs, v)
		return nil
	})
	var (
		list     = fs.Bool("list", false, "list built-in specs and exit")
		dump     = fs.String("dump", "", "print the named spec (file path or builtin:<name>) as JSON and exit")
		jsonOut  = fs.Bool("json", false, "emit JSON instead of tables")
		stream   = fs.Bool("stream", false, "emit NDJSON: one JSON line per cell as it completes")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		full     = fs.Bool("full", false, "override spec budgets with the report-quality budget")
		seed     = fs.Uint64("seed", 0, "override spec seeds (0 keeps each spec's own)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		backend  = fs.String("backend", "", "override spec backends: comma-separated subset of model,sim,bounds (empty = spec's own)")
		shards   = fs.String("shards", "", "dispatch grid ranges across these sweepd server(s), comma-separated (empty = in-process)")
		batch    = fs.Int("batch", 0, "with -shards: cells per dispatched range (0 = auto)")
		cacheDir = fs.String("cache-dir", "", "persist the result cache to this directory (empty = in-memory)")
		traceOut = fs.String("trace-out", "", "write NDJSON span traces to this file (see docs/observability.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var backends []string
	if *backend != "" {
		var err error
		if backends, err = cliutil.ParseBackends(*backend); err != nil {
			return err
		}
	}
	if *batch != 0 && *shards == "" {
		return errors.New("-batch needs -shards (it bounds the dispatched range size); in-process runs do not batch")
	}
	if *workers != 0 && *shards != "" {
		return errors.New("-workers does not apply with -shards: dispatch concurrency is one range stream per shard (bound range size with -batch)")
	}

	if *list {
		for _, name := range sweep.Builtins() {
			s, _ := sweep.Builtin(name)
			fmt.Fprintf(stdout, "%-16s %s\n", name, s.Description)
		}
		return nil
	}
	if *dump != "" {
		spec, err := cliutil.LoadSpec(*dump, sweep.Builtin, sweep.ParseSpec)
		if err != nil {
			return err
		}
		return cliutil.DumpJSON(stdout, spec)
	}
	if len(specs) == 0 {
		return errors.New("no -spec given (try -spec builtin:figure3, or -list)")
	}

	ctx, cancel := cliutil.Context(ctx, *timeout)
	defer cancel()

	// The deferred closes below run on the failure paths too: a sweep
	// that errors or hits -timeout still flushes its trace tail and syncs
	// its store.
	if *traceOut != "" {
		tracer, closeTracer, err := cliutil.OpenTracer(*traceOut)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "closing trace", closeTracer)
		ctx = obs.WithTracer(ctx, tracer)
	}

	var cache sweep.CacheStore
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "closing store", st.Close)
		if !*quiet {
			fmt.Fprintf(stderr, "sweep: store: %d cell(s) recovered from %s\n",
				st.Recovered(), *cacheDir)
		}
		cache = st
	} else {
		cache = sweep.NewCache()
	}

	// One engine whichever way cells are computed: in-process by default,
	// or with -shards through the dispatcher's range scheduler — whose
	// engine is the same sweep.Runner.
	engine := sweep.NewRunner(sweep.WithWorkers(*workers))
	var disp *dispatch.Dispatcher
	if *shards != "" {
		addrs, err := cliutil.ParseStrings(*shards)
		if err != nil {
			return err
		}
		if disp, err = dispatch.New(addrs, dispatch.WithBatch(*batch)); err != nil {
			return err
		}
		engine = disp.Runner
	}
	engine.Cache = cache
	if !*quiet && !*stream {
		engine.Progress = func(ev sweep.Event) {
			tag := ""
			if ev.Cached {
				tag = " [cached]"
			}
			fmt.Fprintf(stderr, "sweep: %d/%d %s load=%.6g%s\n",
				ev.Done, ev.Total, ev.Scenario.CurveKey(), ev.Scenario.Load.Value, tag)
		}
	}

	var results []*sweep.Result
	for _, ref := range specs {
		spec, err := cliutil.LoadSpec(ref, sweep.Builtin, sweep.ParseSpec)
		if err != nil {
			return err
		}
		if len(backends) > 0 {
			// -backend overrides the spec wholesale; with_sim follows the
			// list so the two spellings stay in agreement (Spec.Validate
			// rejects a with_sim=true spec whose backends omit "sim").
			spec.Backends = backends
			spec.WithSim = false
			for _, b := range backends {
				if b == sweep.BackendSim {
					spec.WithSim = true
				}
			}
		}
		if *full {
			spec.Budget.Warmup = sweep.Full.Warmup
			spec.Budget.Measure = sweep.Full.Measure
		}
		if *seed != 0 {
			spec.Budget.Seed = *seed
		}
		if *stream {
			if err := streamSpec(ctx, stdout, engine.Stream(ctx, spec)); err != nil {
				return err
			}
			continue
		}
		res, err := engine.Run(ctx, spec)
		if err != nil {
			return err
		}
		results = append(results, res)
		if !*quiet {
			fmt.Fprintf(stderr, "sweep: %s done: %d computed, %d cache hits\n",
				displayName(spec), res.CacheMisses, res.CacheHits)
		}
	}
	if disp != nil && !*quiet {
		st := disp.Stats()
		fmt.Fprintf(stderr,
			"sweep: dispatch: %d cell(s) over %d range(s), %d cached, %d requeue(s), %d shard failure(s), %d ejected\n",
			st.Cells, st.Batches, st.CacheHits, st.Requeues, st.ShardFailures, st.EjectedShards)
	}
	if *stream {
		return nil
	}

	if *jsonOut {
		return cliutil.DumpJSON(stdout, results)
	}
	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, res.Summary())
		fmt.Fprint(stdout, res.Table().String())
	}
	return nil
}

// streamSpec prints one spec's stream, each cell as a JSON line the
// moment it arrives, in completion order.
func streamSpec(ctx context.Context, stdout io.Writer, cells <-chan sweep.PointResult) error {
	enc := json.NewEncoder(stdout)
	for pr := range cells {
		if pr.Err != nil {
			return pr.Err
		}
		if err := enc.Encode(pr.Row); err != nil {
			return err
		}
	}
	return ctx.Err()
}

func displayName(s sweep.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "sweep"
}
