// Capacity planning with the model-guided planner: given a latency SLO,
// find which machines sustain the most load, what they cost, and have
// the simulator certify the winners — the kind of design question the
// paper's model answers in milliseconds where a simulation campaign
// takes hours. The planner prunes the design space on a coarse analytic
// grid, bisects each survivor's load axis to the saturation knee, keeps
// the Pareto frontier over (cost, latency, sustainable load), and runs
// the flit-level simulator only on the frontier.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/plan"
)

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec, err := plan.Builtin("bft-capacity")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s\n%s\n\n", spec.Name, spec.Description)
	res, err := plan.NewLocal(nil).Run(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Summary())
	fmt.Println()
	fmt.Print(res.Table().String())
	fmt.Println("\nlarger machines give up load earlier: top-level up-link pairs concentrate")
	fmt.Println("contention, exactly the effect the paper's M/G/2 channels capture — and the")
	fmt.Println("planner finds each knee with ~25 model probes instead of a full sweep grid.")
}
