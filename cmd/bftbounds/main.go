// Command bftbounds derives the network-calculus worst-case latency
// bound for one butterfly fat-tree operating point, printing the
// per-hop composition — burst σ, delay and backlog at every channel
// class on the longest route — alongside the end-to-end guarantee. The
// companion of cmd/bftmodel (mean latency) for hard-deadline sizing;
// see docs/bounds.md for the calculus.
//
// Usage:
//
//	bftbounds [-n 64] [-flits 16] [-load 0.02]
//	bftbounds -n 64 -load 0.02 -onfrac 0.25 -burstcycles 200   # MMPP envelope
//	bftbounds -n 64 -load 0.02 -json                           # machine-readable
//
// -load is in flits/cycle per processor (the Figure 3 axis). With
// -onfrac/-burstcycles the per-source envelope is the MMPP on-off
// burst instead of the Poisson unit burst.
package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/workload"
)

func main() { cliutil.Main("bftbounds", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bftbounds", stderr)
	var (
		n           = fs.Int("n", 64, "number of processors (power of four)")
		flits       = fs.Float64("flits", 16, "message length in flits")
		load        = fs.Float64("load", 0.02, "offered load (flits/cycle per processor)")
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
		fmt.Fprintf(stdout, "  worst-case latency bound = %.3f cycles (mean model L is cmd/bftmodel's Eq. 25)\n", rep.Total)
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
