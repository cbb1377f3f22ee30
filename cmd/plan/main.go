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
//	plan -spec builtin:bft-capacity -addr :8713  # submit to a server's /v1/plan
//	plan -spec builtin:bft-capacity -cache-dir d # persistent probe cache
//	plan -spec builtin:bft-capacity -trace-out t.ndjson   # NDJSON span trace
//	plan -spec builtin:calibrated-capacity -calib map.json
//	                                             # trust-gated certification
//
// Progress streams to stderr; results go to stdout. With -shards the
// search runs in this process but every evaluation executes on the
// named sweepd fleet: the coarse grid is dispatched as contiguous
// ranges (work stealing, shard failover) and the bisection probes
// rotate per-cell with retry, all warming the fleet-tagged cache lines.
// With -addr the whole search runs inside the named server (or
// front-end) via POST /v1/plan and this process just consumes the
// update stream — the thin-client form.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() {
	cliutil.Setup("plan")
	var (
		specRef  = flag.String("spec", "", "spec file path or builtin:<name>")
		list     = flag.Bool("list", false, "list built-in plan specs and exit")
		dump     = flag.String("dumpspec", "", "print the named spec (file path or builtin:<name>) as JSON and exit")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of a table")
		stream   = flag.Bool("stream", false, "emit NDJSON: one update line per search event")
		timeout  = flag.Duration("timeout", 0, "abort the search after this duration (0 = no deadline)")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		backend  = flag.String("backend", "", "override spec backends: comma-separated subset of model,sim,bounds (empty = spec's own; omitting sim skips certification)")
		addr     = flag.String("addr", "", "submit the plan to this sweepd server's /v1/plan (thin client)")
		shards   = flag.String("shards", "", "execute the search over these sweepd shard(s), comma-separated")
		cacheDir = flag.String("cache-dir", "", "persist the probe cache to this directory (empty = in-memory)")
		calibRef = flag.String("calib", "", "calibration map file (cmd/calib) for trust-gated certification; see docs/calibration.md")
		benchOut = flag.String("bench-out", "", "write a candidates/sec benchmark summary JSON to this file")
		traceOut = flag.String("trace-out", "", "write NDJSON span traces to this file (see docs/observability.md)")
	)
	flag.Parse()
	if *addr != "" && *shards != "" {
		log.Fatal("-addr and -shards are mutually exclusive: server-side search vs fleet-executed local search")
	}

	if *list {
		for _, name := range plan.Builtins() {
			s, _ := plan.Builtin(name)
			fmt.Printf("%-20s %s\n", name, s.Description)
		}
		return
	}
	if *dump != "" {
		spec, err := loadSpec(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if err := cliutil.DumpJSON(spec); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *specRef == "" {
		log.Fatal("no -spec given (try -spec builtin:bft-capacity, or -list)")
	}
	spec, err := loadSpec(*specRef)
	if err != nil {
		log.Fatal(err)
	}
	if *backend != "" {
		backends, err := cliutil.ParseBackends(*backend)
		if err != nil {
			log.Fatal(err)
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

	// -calib loads a mined calibration map and turns on trust-gated
	// certification: regions the map shows the model is accurate in skip
	// their certification sim. The gate runs inside the search process,
	// so it composes with -shards but not -addr (attach a map to the
	// server via serve.WithCalibration instead).
	var calibMap *calib.Map
	if *calibRef != "" {
		if *addr != "" {
			log.Fatal("-calib does not apply with -addr: the trust gate runs in the search process (attach the map to the server instead)")
		}
		if _, err := os.Stat(*calibRef); err != nil {
			log.Fatalf("-calib %s: %v (mine one with cmd/calib)", *calibRef, err)
		}
		if calibMap, err = calib.LoadMap(*calibRef); err != nil {
			log.Fatal(err)
		}
		if spec.Calibration == nil {
			spec.Calibration = &plan.CalibSpec{} // defaults: MAPE ≤ 0.1, ≥ 3 pairs
		}
	}

	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	if *traceOut != "" {
		tracer, closeTracer, err := cliutil.OpenTracer(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := closeTracer(); err != nil {
				log.Printf("closing trace: %v", err)
			}
		}()
		ctx = obs.WithTracer(ctx, tracer)
	}

	start := time.Now()
	var res *plan.Result
	if *addr != "" {
		res, err = submit(ctx, *addr, spec, *stream, *quiet)
	} else {
		res, err = runLocal(ctx, spec, *shards, *cacheDir, calibMap, *stream, *quiet)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, res, time.Since(start)); err != nil {
			log.Fatal(err)
		}
	}
	if *stream {
		return // updates already went to stdout
	}
	if *jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Print(res.Summary())
	fmt.Print(res.Table().String())
}

// runLocal executes the search in this process, in-process or over a
// shard fleet, consuming the update stream for progress/-stream.
func runLocal(ctx context.Context, spec plan.Spec, shards, cacheDir string, calibMap *calib.Map, stream, quiet bool) (*plan.Result, error) {
	var cache sweep.CacheStore
	if cacheDir != "" {
		st, err := store.Open(cacheDir)
		if err != nil {
			return nil, err
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
		}()
		if !quiet {
			fmt.Fprintf(os.Stderr, "plan: store: %d cell(s) recovered from %s\n", st.Recovered(), cacheDir)
		}
		cache = st
	}

	var popts []plan.Option
	if calibMap != nil {
		popts = append(popts, plan.WithCalibration(calibMap))
	}
	var planner *plan.Planner
	if shards != "" {
		addrs, err := cliutil.ParseStrings(shards)
		if err != nil {
			return nil, err
		}
		var dopts []dispatch.Option
		if cache != nil {
			dopts = append(dopts, dispatch.WithCache(cache))
		}
		engine, err := dispatch.New(addrs, dopts...)
		if err != nil {
			return nil, err
		}
		planner = plan.New(engine, popts...)
	} else {
		planner = plan.NewLocal(cache, popts...)
	}

	enc := json.NewEncoder(os.Stdout)
	var res *plan.Result
	for u := range planner.Stream(ctx, spec) {
		if u.Err != nil {
			return nil, u.Err
		}
		if stream {
			if err := enc.Encode(u); err != nil {
				return nil, err
			}
		} else if !quiet {
			progress(u)
		}
		if u.Phase == plan.PhaseDone {
			res = u.Result
		}
	}
	if res == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("plan: stream ended without a result")
	}
	return res, nil
}

// submit posts the spec to a server's /v1/plan and consumes the NDJSON
// update stream. With a tracer on ctx the submission becomes a root
// span whose IDs travel in the request headers, so the server's spans
// stitch under it.
func submit(ctx context.Context, addr string, spec plan.Spec, stream, quiet bool) (res *plan.Result, err error) {
	name := spec.Name
	if name == "" {
		name = "anonymous"
	}
	ctx, span := obs.StartSpanKeyed(ctx, "plan.submit", name)
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	rb, err := eval.NewRemoteBackend([]string{addr})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(os.Stdout)
	err = rb.Post(ctx, "/v1/plan", body, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		// The final done line carries the whole Result (every candidate),
		// so the line cap must scale to large design spaces, not row size.
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			var u plan.Update
			if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
				return fmt.Errorf("bad update line: %w", err)
			}
			if u.Err != nil {
				return u.Err
			}
			if stream {
				if err := enc.Encode(u); err != nil {
					return err
				}
			} else if !quiet {
				progress(u)
			}
			if u.Phase == plan.PhaseDone {
				res = u.Result
			}
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("plan: server stream ended without a result")
	}
	return res, nil
}

// progress renders one update as a stderr progress line.
func progress(u plan.Update) {
	c := u.Candidate
	switch u.Phase {
	case plan.PhasePrune:
		fmt.Fprintf(os.Stderr, "plan: prune   %-26s %s\n", c.Key(), c.PruneReason)
	case plan.PhaseRefine:
		fmt.Fprintf(os.Stderr, "plan: refine  %-26s max_load=%.6f (%d probes)\n", c.Key(), c.MaxLoad, c.Probes)
	case plan.PhaseCertify:
		verdict := "certified"
		if !c.Certified {
			verdict = "NOT certified"
			if c.CertifyNote != "" {
				verdict = c.CertifyNote
			}
		}
		fmt.Fprintf(os.Stderr, "plan: certify %-26s sim=%.4f (%s)\n", c.Key(), c.Sim, verdict)
	case plan.PhaseFrontier:
		fmt.Fprintf(os.Stderr, "plan: frontier %-25s cost=%.0f latency=%.4f max_load=%.6f\n",
			c.Key(), c.Cost, c.Latency, c.MaxLoad)
	}
}

// writeBench records the planner's efficiency so CI can track it: how
// fast candidates are resolved and how many simulator runs the
// frontier-only certification saved against simulating every coarse
// cell.
func writeBench(path string, res *plan.Result, elapsed time.Duration) error {
	s := res.Stats
	// A hard-SLO (or -backend bounds) frontier carries worst-case
	// bounds; a certified sim mean above its own bound is a violation of
	// the calculus and CI gates on the count staying zero.
	bounded, violations := 0, 0
	for _, c := range res.Frontier {
		if math.IsNaN(c.BoundMax) && !c.BoundNA {
			continue
		}
		bounded++
		if !math.IsNaN(c.Sim) && !math.IsNaN(c.BoundMax) && c.Sim > c.BoundMax {
			violations++
		}
	}
	summary := struct {
		Name             string  `json:"name"`
		Candidates       int     `json:"candidates"`
		Frontier         int     `json:"frontier"`
		Certified        int     `json:"certified"`
		Bounded          int     `json:"bounded,omitempty"`
		BoundViolations  int     `json:"bound_violations"`
		AnalyticEvals    int     `json:"analytic_evals"`
		SimEvals         int     `json:"sim_evals"`
		SimEvalsSaved    int     `json:"sim_evals_saved_vs_grid"`
		Trusted          int     `json:"trusted,omitempty"`
		Escalated        int     `json:"escalated,omitempty"`
		Uncalibrated     int     `json:"uncalibrated,omitempty"`
		TrustSimSaved    int     `json:"sim_evals_saved_by_trust"`
		ElapsedMS        int64   `json:"elapsed_ms"`
		CandidatesPerSec float64 `json:"candidates_per_sec"`
	}{
		Name:            res.Spec.Name,
		Candidates:      s.Candidates,
		Frontier:        s.FrontierSize,
		Certified:       s.Certified,
		Bounded:         bounded,
		BoundViolations: violations,
		AnalyticEvals:   s.AnalyticEvals(),
		SimEvals:        s.SimEvals,
		// A sweep answering the same question simulates every coarse
		// cell; the planner simulates only the frontier.
		SimEvalsSaved: s.CoarseCells - s.SimEvals,
		Trusted:       s.Trusted,
		Escalated:     s.Escalated,
		Uncalibrated:  s.Uncalibrated,
		// Each trusted frontier member is one certification simulation
		// the always-escalate baseline would have run.
		TrustSimSaved: s.Trusted,
		ElapsedMS:     elapsed.Milliseconds(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		summary.CandidatesPerSec = float64(s.Candidates) / sec
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadSpec resolves a -spec argument: "builtin:<name>" or a JSON file
// path.
func loadSpec(ref string) (plan.Spec, error) {
	if name, ok := strings.CutPrefix(ref, "builtin:"); ok {
		return plan.Builtin(name)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		return plan.Spec{}, err
	}
	spec, err := plan.ParseSpec(data)
	if err != nil {
		return plan.Spec{}, fmt.Errorf("%s: %w", ref, err)
	}
	return spec, nil
}
