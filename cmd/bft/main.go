// Command bft answers one butterfly fat-tree operating point three ways,
// one subcommand per view of the paper's question:
//
//	bft model  [-n 1024] [-flits 16] [-load 0.02] [-inspect] [-saturation]
//	bft sim    [-n 1024] [-flits 16] [-load 0.02] [-warmup 10000]
//	           [-measure 50000] [-seed 1] [-policy pairqueue|randomfixed]
//	           [-cube dims] [-hist] [-precision 0.05] [-replicas 4]
//	           [-workload '{"process":"mmpp","on_frac":0.25,"burst_cycles":200}']
//	           [-record burst.ndjson] [-result-out result.txt]
//	bft replay -trace burst.ndjson [-result-out result.txt]
//	bft stats  -trace burst.ndjson [-top 8]
//	bft bounds [-n 64] [-flits 16] [-load 0.02] [-onfrac 0.25 -burstcycles 200]
//	           [-json] [-csv]
//
// -load is in flits/cycle per processor (the Figure 3 axis) everywhere.
//
// model evaluates the analytical model: the latency decomposition
// (Eq. 25) and the per-channel-class service times, waits and
// utilizations of §3.3. With -inspect it dumps the switch wiring instead
// (the structure of the paper's Figure 2), and with -saturation it solves
// Eq. 26.
//
// sim runs one flit-level simulation (of a binary hypercube with -cube)
// and prints the measured latency, throughput and per-channel-kind
// utilizations. -workload applies a declarative workload spec (see
// docs/workload.md): bursty arrival processes, per-source rate mixes and
// destination patterns beyond uniform; empty keeps the paper's steady
// uniform Poisson workload. -precision enables CI-width early stopping:
// the run ends as soon as the latency estimate's relative 95% half-width
// drops to the given value, with -measure acting as a ceiling. -replicas
// runs independent replicas concurrently and pools their statistics.
//
// sim -record writes the run's arrivals to an NDJSON trace whose header
// is the run's recipe (see docs/workload.md); recording does not perturb
// the run. replay reruns that recipe on the recorded arrivals, and its
// Result is bit-identical to the recording's: -result-out writes it in a
// canonical text form, so bit-identity is a file diff. stats prints a
// trace's header and summary (events, rate, interarrival SCV, top
// destinations) as JSON.
//
// bounds derives the network-calculus worst-case latency bound, printing
// the per-hop composition — burst σ, delay and backlog at every channel
// class on the longest route — alongside the end-to-end guarantee: the
// companion of model (mean latency) for hard-deadline sizing; see
// docs/bounds.md for the calculus. With -onfrac/-burstcycles the
// per-source envelope is the MMPP on-off burst instead of the Poisson
// unit burst.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() { cliutil.Main("bft", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: bft model|sim|replay|stats|bounds [flags] (run 'bft <cmd> -h' for flags)")
	}
	switch args[0] {
	case "model":
		return model(args[1:], stdout, stderr)
	case "sim":
		return simulate(ctx, args[1:], stdout, stderr)
	case "replay":
		return replay(ctx, args[1:], stdout, stderr)
	case "stats":
		return stats(args[1:], stdout, stderr)
	case "bounds":
		return bound(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want model, sim, replay, stats or bounds)", args[0])
	}
}

// pointFlags declares the operating point every subcommand takes; only
// the default size differs between them.
func pointFlags(fs *flag.FlagSet, size int) (n *int, flits, load *float64) {
	return fs.Int("n", size, "number of processors (power of four)"),
		fs.Float64("flits", 16, "message length in flits"),
		fs.Float64("load", 0.02, "offered load (flits/cycle per processor)")
}

func model(args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bft model", stderr)
	n, flits, load := pointFlags(fs, 1024)
	var (
		inspect = fs.Bool("inspect", false, "dump the switch wiring and exit")
		sat     = fs.Bool("saturation", false, "solve Eq. 26 and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect {
		ft, err := topology.NewFatTree(*n)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, ft.Describe())
		return nil
	}

	model, err := analytic.NewFatTreeModel(*n, *flits, core.Options{})
	if err != nil {
		return err
	}
	if *sat {
		s, err := model.SaturationLoad()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saturation: %.6f flits/cycle/PE (%.6f messages/cycle/PE)\n",
			s, s / *flits)
		return nil
	}

	lambda0 := *load / *flits
	lat, err := model.Latency(lambda0)
	if err != nil {
		return fmt.Errorf("load %.4f flits/cycle/PE: %w", *load, err)
	}
	fmt.Fprintf(stdout, "butterfly fat-tree N=%d, s=%g flits, load=%.4f flits/cycle/PE (λ0=%.6g)\n",
		*n, *flits, *load, lambda0)
	fmt.Fprintf(stdout, "  average latency L      = %.3f cycles (Eq. 25)\n", lat.Total)
	fmt.Fprintf(stdout, "  injection wait  W(0,1) = %.3f cycles\n", lat.WaitInj)
	fmt.Fprintf(stdout, "  injection svc   x(0,1) = %.3f cycles\n", lat.ServiceInj)
	fmt.Fprintf(stdout, "  average distance D     = %.3f channels\n\n", lat.AvgDist)

	stats, err := model.ChannelStats(nil, lambda0)
	if err != nil {
		return err
	}
	tbl := &series.Table{Headers: []string{"class", "m", "rate λ", "service x̄", "wait W̄", "ρ"}}
	for _, st := range stats {
		tbl.AddRow(st.Name,
			fmt.Sprintf("%d", st.Servers),
			fmt.Sprintf("%.6f", st.Rate),
			fmt.Sprintf("%.3f", st.Service),
			fmt.Sprintf("%.3f", st.Wait),
			fmt.Sprintf("%.4f", st.Rho))
	}
	fmt.Fprint(stdout, tbl.String())
	return nil
}

func simulate(ctx context.Context, args []string, stdout, stderr io.Writer) (rerr error) {
	fs := cliutil.Flags("bft sim", stderr)
	n, flits, load := pointFlags(fs, 1024)
	var (
		cube    = fs.Int("cube", 0, "simulate a binary hypercube of this many dimensions instead")
		warmup  = fs.Int("warmup", 10000, "warmup cycles")
		measure = fs.Int("measure", 50000, "measurement cycles")
		seed    = fs.Uint64("seed", 1, "random seed")
		policy  = fs.String("policy", "pairqueue", "up-link policy: pairqueue or randomfixed")
		hist    = fs.Bool("hist", false, "collect a latency histogram and report percentiles")
		prec    = fs.Float64("precision", 0, "stop early once the latency CI is within this relative half-width (0 = fixed window)")
		reps    = fs.Int("replicas", 1, "independent replicas to run and pool")
		wlJSON  = fs.String("workload", "", `workload spec as JSON, e.g. '{"process":"mmpp","on_frac":0.25,"burst_cycles":200}' (empty = steady uniform Poisson)`)
		record  = fs.String("record", "", "write every accepted arrival to this NDJSON trace (bft replay -trace reads it)")
		resOut  = fs.String("result-out", "", "write the Result in its canonical text form to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flits != float64(int(*flits)) {
		return fmt.Errorf("-flits %v: the simulator moves whole flits", *flits)
	}
	if *record != "" && *prec > 0 {
		return errors.New("-record writes a fixed-window trace: drop -precision")
	}

	h := workload.TraceHeader{
		Family:   "fattree",
		Size:     *n,
		MsgFlits: int(*flits),
		Lambda0:  *load / *flits,
		Warmup:   *warmup,
		Measure:  *measure,
		Seed:     *seed,
		Policy:   *policy,
	}
	if *cube > 0 {
		h.Family, h.Size = "hypercube", 1<<*cube
	}
	cfg, err := config(h)
	if err != nil {
		return err
	}
	cfg.LatencyHistogram = *hist
	if *wlJSON != "" {
		var wl workload.Spec
		if err := sweep.DecodeStrict([]byte(*wlJSON), &wl); err != nil {
			return fmt.Errorf("decoding -workload: %w", err)
		}
		cfg.Workload = &wl
	}
	var tr *workload.Trace
	if *record != "" {
		h.Policy, h.Workload = cfg.Policy.String(), cfg.Workload.Canonical()
		tr = &workload.Trace{Header: h}
		cfg.Recorder = func(src, dst int, cycle float64) {
			tr.Events = append(tr.Events, workload.TraceEvent{
				Src: src, Dst: dst, Cycle: cycle, MsgFlits: cfg.MsgFlits,
			})
		}
	}
	var opts []sim.Option
	if *prec > 0 {
		opts = append(opts, sim.WithTermination(sim.Termination{RelHalfWidth: *prec}))
	}
	if *reps > 1 {
		opts = append(opts, sim.WithReplicas(*reps))
	}
	res, err := sim.Run(ctx, cfg, opts...)
	if err != nil {
		return err
	}
	if tr != nil {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "-record", f.Close)
		if err := workload.WriteTrace(f, tr); err != nil {
			return err
		}
	}
	return report(stdout, res, cfg.Net, *resOut)
}

// config builds the run a trace header describes — bft sim's from its
// flags, bft replay's from the recording's header — on a fat-tree or a
// binary hypercube of h.Size processors, at most topology.MaxProcessors.
func config(h workload.TraceHeader) (sim.Config, error) {
	if h.Size > topology.MaxProcessors {
		return sim.Config{}, fmt.Errorf("%s network of %d processors is too large to simulate: the limit is %d processors", h.Family, h.Size, topology.MaxProcessors)
	}
	var net topology.Network
	var err error
	switch {
	case h.Family == "fattree" || h.Family == "bft":
		net, err = topology.NewFatTree(h.Size)
	case h.Family == "hypercube" && h.Size >= 2 && bits.OnesCount(uint(h.Size)) == 1:
		net, err = topology.NewHypercube(bits.TrailingZeros(uint(h.Size)))
	default:
		err = fmt.Errorf("no %s network of %d processors", h.Family, h.Size)
	}
	if err != nil {
		return sim.Config{}, err
	}
	pol, err := sim.ParsePolicy(h.Policy)
	return sim.Config{
		Net:           net,
		MsgFlits:      h.MsgFlits,
		Lambda0:       h.Lambda0,
		Seed:          h.Seed,
		WarmupCycles:  h.Warmup,
		MeasureCycles: h.Measure,
		DrainLimit:    h.DrainLimit,
		Policy:        pol,
	}, err
}

// report writes res to resOut, when given, and prints it: the measured
// latency, throughput and per-channel-kind busy fractions.
func report(stdout io.Writer, res *sim.Result, net topology.Network, resOut string) error {
	if resOut != "" {
		// Canonical text form: %+v spells NaN literally, so bit-identity
		// between a recording and its replay is a plain file diff.
		if err := os.WriteFile(resOut, []byte(fmt.Sprintf("%+v\n", *res)), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, res.String())
	fmt.Fprintf(stdout, "  latency: mean=%.3f ±%.3f (95%% CI), min=%.1f, max=%.1f cycles\n",
		res.LatencyMean, res.LatencyCI95, res.LatencyMin, res.LatencyMax)
	if res.EarlyStopped || res.Replicas > 1 {
		fmt.Fprintf(stdout, "  effort: %d replicas, %d measured cycles, achieved precision %.4f\n",
			res.Replicas, res.MeasuredCycles, res.Precision)
	}
	if !math.IsNaN(res.LatencyP50) { // -hist
		fmt.Fprintf(stdout, "  percentiles: p50=%.1f p95=%.1f p99=%.1f cycles\n",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	fmt.Fprintf(stdout, "  injection: wait=%.3f, service=%.3f cycles (model's W(0,1), x(0,1))\n",
		res.WaitInjMean, res.ServiceInjMean)
	fmt.Fprintf(stdout, "  throughput: %.5f delivered vs %.5f offered flits/cycle/PE\n",
		res.ThroughputFlits, res.OfferedFlits)
	fmt.Fprintf(stdout, "  tracked messages: %d arrived, %d completed; mean source queue %.3f\n",
		res.TrackedInjected, res.TrackedCompleted, res.MeanSourceQueue)
	fmt.Fprintln(stdout, "  mean busy fraction by channel kind:")
	for _, kb := range res.BusyByKind(net) {
		fmt.Fprintf(stdout, "    %-5v %.4f\n", kb.Kind, kb.Busy)
	}
	return nil
}

// readTrace reads the trace at path, which -trace names.
func readTrace(path string) (*workload.Trace, error) {
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

// replay rebuilds the recording run from the trace header and feeds it
// the recorded arrivals: its Result is bit-identical to the recording's.
func replay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bft replay", stderr)
	var (
		path   = fs.String("trace", "", "trace file to replay (required)")
		resOut = fs.String("result-out", "", "write the Result in its canonical text form to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := readTrace(*path)
	if err != nil {
		return err
	}
	cfg, err := config(tr.Header)
	if err != nil {
		return err
	}
	cfg.Trace = tr
	res, err := sim.Run(ctx, cfg)
	if err != nil {
		return err
	}
	return report(stdout, res, cfg.Net, *resOut)
}

// stats prints a trace's header and summary statistics as JSON.
func stats(args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bft stats", stderr)
	var (
		path = fs.String("trace", "", "trace file to summarise (required)")
		top  = fs.Int("top", 8, "number of top destinations to list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := readTrace(*path)
	if err != nil {
		return err
	}
	return cliutil.DumpJSON(stdout, struct {
		Header workload.TraceHeader `json:"header"`
		Stats  workload.TraceStats  `json:"stats"`
	}{tr.Header, tr.Stats(*top)})
}

func bound(args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bft bounds", stderr)
	n, flits, load := pointFlags(fs, 64)
	var (
		onfrac      = fs.Float64("onfrac", 0, "MMPP on-fraction in (0,1] (0 = steady Poisson sources)")
		burstCycles = fs.Float64("burstcycles", 0, "MMPP mean burst length in cycles (with -onfrac)")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON instead of a table")
		csv         = fs.Bool("csv", false, "emit the per-hop table as CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	model, err := analytic.NewFatTreeModel(*n, *flits, core.Options{})
	if err != nil {
		return err
	}
	lambda0 := *load / *flits

	var wl *workload.Spec
	if *onfrac > 0 {
		wl = &workload.Spec{
			Name:        "burst",
			Process:     workload.ProcessMMPP,
			OnFrac:      *onfrac,
			BurstCycles: *burstCycles,
		}
		if err := wl.Validate(); err != nil {
			return err
		}
	}
	burst, ok := bounds.Envelope(wl, lambda0)
	if !ok {
		return fmt.Errorf("no deterministic (σ,ρ) envelope for workload %s", wl.Label())
	}

	rep, err := bounds.Compute(model, lambda0, burst)
	if err != nil {
		return fmt.Errorf("load %.4f flits/cycle/PE: %w", *load, err)
	}

	if *jsonOut {
		return cliutil.DumpJSON(stdout, rep)
	}

	if !*csv {
		fmt.Fprintf(stdout, "butterfly fat-tree N=%d, s=%g flits, load=%.4f flits/cycle/PE (λ0=%.6g, per-source burst σ=%.3f msg)\n",
			*n, *flits, *load, lambda0, rep.Burst)
		fmt.Fprintf(stdout, "  worst-case latency bound = %.3f cycles (mean model L is bft model's Eq. 25)\n", rep.Total)
		fmt.Fprintf(stdout, "  max per-hop backlog      = %.1f flits\n\n", rep.MaxBacklog)
	}
	tbl := &series.Table{Headers: []string{"hop", "m", "service x̄", "ρ", "sources", "σ (msg)", "delay", "backlog (flits)"}}
	for _, h := range rep.Hops {
		tbl.AddRow(h.Name,
			fmt.Sprintf("%d", h.Servers),
			fmt.Sprintf("%.3f", h.Service),
			fmt.Sprintf("%.4f", h.Rho),
			fmt.Sprintf("%d", h.Sources),
			fmt.Sprintf("%.3f", h.Sigma),
			fmt.Sprintf("%.3f", h.Delay),
			fmt.Sprintf("%.1f", h.Backlog))
	}
	cliutil.Output(stdout, tbl, *csv)
	return nil
}
