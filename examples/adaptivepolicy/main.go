// Adaptive up-link policy study: how much does the butterfly fat-tree's
// two-up-link redundancy actually buy? The simulator compares the paper's
// discipline (a shared FCFS queue per pair, which the model captures as
// one M/G/2 channel) against pinning each worm to a randomly chosen link
// (two independent M/G/1 queues), at increasing load.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	const (
		numProc  = 256
		msgFlits = 16
	)
	model, err := analytic.NewFatTreeModel(numProc, msgFlits, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sat, err := model.SaturationLoad()
	if err != nil {
		log.Fatal(err)
	}
	ft, err := topology.NewFatTree(numProc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("N=%d, s=%d flits; model saturation %.4f flits/cycle/PE\n\n",
		numProc, msgFlits, sat)
	fmt.Printf("%-12s  %-18s  %-18s  %s\n", "load", "pair queue (M/G/2)", "pinned (2x M/G/1)", "penalty")

	for _, frac := range []float64{0.3, 0.5, 0.7, 0.85} {
		load := frac * sat
		run := func(policy sim.UpLinkPolicy) *sim.Result {
			res, err := sim.Run(context.Background(), sim.Config{
				Net:           ft,
				MsgFlits:      msgFlits,
				Seed:          7,
				WarmupCycles:  5000,
				MeasureCycles: 30000,
				Policy:        policy,
			}.FlitLoad(load))
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		pair := run(sim.PairQueue)
		fixed := run(sim.RandomFixed)
		fmt.Printf("%-12.4f  %8.2f ± %-6.2f  %8.2f ± %-6.2f  +%.1f%%\n",
			load,
			pair.LatencyMean, pair.LatencyCI95,
			fixed.LatencyMean, fixed.LatencyCI95,
			100*(fixed.LatencyMean-pair.LatencyMean)/pair.LatencyMean)
	}
	fmt.Println("\nthe gap widens with load: redundant links only help if a blocked worm")
	fmt.Println("can take whichever frees first — the behaviour the M/G/2 model assumes.")
}
