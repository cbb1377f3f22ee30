// Command bftmodel evaluates the analytical fat-tree model at one
// operating point, printing the latency decomposition (Eq. 25) and the
// per-channel-class service times, waits and utilizations of §3.3. With
// -inspect it dumps the switch wiring instead (the structure of the
// paper's Figure 2), and with -saturation it solves Eq. 26.
//
// Usage:
//
//	bftmodel [-n 1024] [-flits 16] [-load 0.02] [-inspect] [-saturation]
//
// -load is in flits/cycle per processor (the Figure 3 axis).
package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analytic"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/topology"
)

func main() { cliutil.Main("bftmodel", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("bftmodel", stderr)
	var (
		n       = fs.Int("n", 1024, "number of processors (power of four)")
		flits   = fs.Float64("flits", 16, "message length in flits")
		load    = fs.Float64("load", 0.02, "offered load (flits/cycle per processor)")
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

	stats, err := model.ChannelStats(lambda0)
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
