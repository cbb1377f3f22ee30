// Network comparison with the general model: butterfly fat-tree vs binary
// hypercube at equal processor counts. The paper's framework (§2) applies
// to both, so one code path prices latency and saturation for either
// network — the "can also be applied to other networks" claim in action.
package main

import (
	"fmt"
	"log"

	"repro/internal/analytic"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	const msgFlits = 16

	configs := []struct {
		procs int
		dims  int
	}{
		{64, 6}, {256, 8}, {1024, 10},
	}

	fmt.Printf("%-6s  %-24s  %-24s\n", "", "butterfly fat-tree", "binary hypercube")
	fmt.Printf("%-6s  %-10s  %-12s  %-10s  %-12s\n",
		"N", "L(0.3sat)", "sat fl/cyc", "L(0.3sat)", "sat fl/cyc")

	for _, c := range configs {
		ftm, err := analytic.NewFatTreeModel(c.procs, msgFlits, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		hcm, err := analytic.NewHypercubeModel(c.dims, msgFlits, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		row := []string{fmt.Sprintf("%d", c.procs)}
		for _, m := range []*analytic.Model{&ftm.Model, &hcm.Model} {
			sat, err := m.SaturationLoad()
			if err != nil {
				log.Fatal(err)
			}
			lat, err := m.Latency(0.3 * sat / msgFlits)
			if err != nil {
				log.Fatal(err)
			}
			row = append(row, fmt.Sprintf("%.2f", lat.Total), fmt.Sprintf("%.4f", sat))
		}
		fmt.Printf("%-6s  %-10s  %-12s  %-10s  %-12s\n", row[0], row[1], row[2], row[3], row[4])
	}

	fmt.Println("\nthe hypercube's per-node bisection stays constant as N grows while the")
	fmt.Println("fat-tree's thins out — but the fat-tree pays for it with 6-port switches")
	fmt.Println("instead of routers whose degree grows with log N (the area-universality")
	fmt.Println("trade-off that motivates fat-trees in the first place).")
}
