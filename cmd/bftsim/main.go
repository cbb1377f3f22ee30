// Command bftsim runs one flit-level simulation of the butterfly fat-tree
// (or a binary hypercube with -cube) and prints the measured latency,
// throughput, and per-channel-kind utilizations.
//
// Usage:
//
//	bftsim [-n 1024] [-flits 16] [-load 0.02] [-warmup 10000]
//	       [-measure 50000] [-seed 1] [-policy pairqueue|randomfixed]
//	       [-cube dims] [-precision 0.05] [-replicas 4]
//	       [-workload '{"process":"mmpp","on_frac":0.25,"burst_cycles":200}']
//
// -workload applies a declarative workload spec (see docs/workload.md):
// bursty arrival processes, per-source rate mixes, and destination
// patterns beyond uniform. Empty keeps the paper's steady uniform
// Poisson workload.
//
// -precision enables CI-width early stopping: the run ends as soon as
// the latency estimate's relative 95% half-width drops to the given
// value, with -measure acting as a ceiling. -replicas runs independent
// replicas concurrently and pools their statistics.
package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cliutil"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() { cliutil.Main("bftsim", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bftsim", stderr)
	var (
		n       = fs.Int("n", 1024, "number of processors (power of four)")
		cube    = fs.Int("cube", 0, "simulate a binary hypercube of this many dimensions instead")
		flits   = fs.Int("flits", 16, "message length in flits")
		load    = fs.Float64("load", 0.02, "offered load (flits/cycle per processor)")
		warmup  = fs.Int("warmup", 10000, "warmup cycles")
		measure = fs.Int("measure", 50000, "measurement cycles")
		seed    = fs.Uint64("seed", 1, "random seed")
		policy  = fs.String("policy", "pairqueue", "up-link policy: pairqueue or randomfixed")
		hist    = fs.Bool("hist", false, "collect a latency histogram and report percentiles")
		prec    = fs.Float64("precision", 0, "stop early once the latency CI is within this relative half-width (0 = fixed window)")
		reps    = fs.Int("replicas", 1, "independent replicas to run and pool")
		wlJSON  = fs.String("workload", "", `workload spec as JSON, e.g. '{"process":"mmpp","on_frac":0.25,"burst_cycles":200}' (empty = steady uniform Poisson)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var net topology.Network
	var err error
	if *cube > 0 {
		net, err = topology.NewHypercube(*cube)
	} else {
		net, err = topology.NewFatTree(*n)
	}
	if err != nil {
		return err
	}
	var pol sim.UpLinkPolicy
	switch *policy {
	case "pairqueue":
		pol = sim.PairQueue
	case "randomfixed":
		pol = sim.RandomFixed
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	cfg := sim.Config{
		Net:              net,
		MsgFlits:         *flits,
		Seed:             *seed,
		WarmupCycles:     *warmup,
		MeasureCycles:    *measure,
		Policy:           pol,
		LatencyHistogram: *hist,
	}.FlitLoad(*load)
	if *wlJSON != "" {
		var wl workload.Spec
		if err := sweep.DecodeStrict([]byte(*wlJSON), &wl); err != nil {
			return fmt.Errorf("decoding -workload: %w", err)
		}
		if err := wl.Validate(); err != nil {
			return err
		}
		cfg.Workload = &wl
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

	fmt.Fprintln(stdout, res.String())
	fmt.Fprintf(stdout, "  latency: mean=%.3f ±%.3f (95%% CI), min=%.1f, max=%.1f cycles\n",
		res.LatencyMean, res.LatencyCI95, res.LatencyMin, res.LatencyMax)
	if res.EarlyStopped || res.Replicas > 1 {
		fmt.Fprintf(stdout, "  effort: %d replicas, %d measured cycles, achieved precision %.4f\n",
			res.Replicas, res.MeasuredCycles, res.Precision)
	}
	if *hist {
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
	for kind, busy := range res.BusyByKind(net) {
		fmt.Fprintf(stdout, "    %-5v %.4f\n", kind, busy)
	}
	return nil
}
