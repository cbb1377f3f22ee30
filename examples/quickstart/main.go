// Quickstart: predict butterfly fat-tree latency with the analytical
// model, verify the prediction with the flit-level simulator, and find
// the saturation throughput — the complete workflow of the paper in ~50
// lines.
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
		numProc  = 256  // 4^4 processors
		msgFlits = 16   // fixed message length (flits)
		load     = 0.03 // offered flits/cycle per processor
	)

	// 1. Analytical model (paper §3, Eq. 12–26).
	model, err := analytic.NewFatTreeModel(numProc, msgFlits, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	lat, err := model.Latency(load / msgFlits) // λ0 in messages/cycle
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: L = %.2f cycles (wait %.2f + service %.2f + D−1 %.2f)\n",
		lat.Total, lat.WaitInj, lat.ServiceInj, lat.AvgDist-1)

	// 2. Saturation throughput (Eq. 26).
	sat, err := model.SaturationLoad()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: saturation at %.4f flits/cycle/PE\n", sat)

	// 3. Flit-level simulation under the paper's assumptions.
	ft, err := topology.NewFatTree(numProc)
	if err != nil {
		log.Fatal(err)
	}
	// The termination option lets the run stop as soon as the estimate
	// is tight enough; MeasureCycles is then just a ceiling.
	res, err := sim.Run(context.Background(), sim.Config{
		Net:           ft,
		MsgFlits:      msgFlits,
		Seed:          1,
		WarmupCycles:  5000,
		MeasureCycles: 30000,
	}.FlitLoad(load), sim.WithTermination(sim.DefaultTermination))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim:   L = %.2f ± %.2f cycles over %d messages\n",
		res.LatencyMean, res.LatencyCI95, res.TrackedCompleted)
	fmt.Printf("agreement: %.1f%% relative error\n",
		100*abs(res.LatencyMean-lat.Total)/lat.Total)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
