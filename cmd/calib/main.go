// Command calib mines a persistent result store into a calibration map
// and reports model-vs-sim accuracy per region: every cached cell that
// carries both an analytic prediction and a simulator measurement
// becomes a calibration pair, bucketed by topology, message length,
// policy, workload and load band (see internal/calib and
// docs/calibration.md). The map is mined afresh on every run and never
// saved: the store is the record, so cells that landed since the last
// run show up in the next report. A shard (sweepd) keeps no map of its
// own: its calibration is this report on its -cache-dir, which may be
// read while the shard writes it — the run changes no byte there.
//
// With -check the command gates instead of reporting: it exits non-zero
// when the mined map is empty or carries a non-finite MAPE.
//
// Usage:
//
//	calib -store DIR                 # mine DIR and report
//	calib -store DIR -json           # the report as JSON
//	calib -store DIR -check          # coverage gate (one line on ok)
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/store"
)

func main() { cliutil.Main("calib", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("calib", stderr)
	var (
		storeDir = fs.String("store", "", "persistent result store directory to mine (cmd/sweep -cache-dir)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		check    = fs.Bool("check", false, "gate: non-zero exit when the mined map is empty or has a non-finite MAPE")
		maxMAPE  = fs.Float64("max-mape", calib.DefaultGate.MaxMAPE, "trust threshold annotated per region in the report")
		minPairs = fs.Int("min-pairs", calib.DefaultGate.MinPairs, "minimum pairs per region for a trust verdict")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return errors.New("nothing to do: pass -store DIR to mine a store")
	}
	// store.Open creates a missing directory; a report only reads one.
	if _, err := os.Stat(*storeDir); err != nil {
		return fmt.Errorf("-store: %w", err)
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close() // only read
	m := calib.NewMap()
	m.Mine(ctx, st)

	rep := m.Report()
	if *check {
		return runCheck(stdout, rep)
	}

	if *jsonOut {
		return cliutil.DumpJSON(stdout, rep)
	}

	printReport(stdout, rep, calib.Gate{MaxMAPE: *maxMAPE, MinPairs: *minPairs}, m)
	return nil
}

// runCheck is the -check gate: regions exist and every MAPE is finite.
func runCheck(w io.Writer, rep calib.Report) error {
	if len(rep.Regions) == 0 {
		return errors.New("calibration check failed: map has no regions (mine a with-sim store first)")
	}
	for _, r := range rep.Regions {
		if math.IsNaN(r.MAPE) || math.IsInf(r.MAPE, 0) {
			return fmt.Errorf("calibration check failed: region %s has non-finite MAPE", r.Name)
		}
	}
	fmt.Fprintf(w, "calibration ok: %d pair(s) across %d region(s)\n", rep.Pairs, len(rep.Regions))
	return nil
}

// printReport renders the human-readable region table with the verdict
// each region would get under the given gate.
func printReport(w io.Writer, rep calib.Report, gate calib.Gate, m *calib.Map) {
	fmt.Fprintf(w, "calibration map: %d pair(s) across %d region(s)\n", rep.Pairs, len(rep.Regions))
	if rep.WorstMAPE != nil {
		fmt.Fprintf(w, "worst region: %s (MAPE %.3g)\n", rep.WorstRegion, *rep.WorstMAPE)
	}
	if len(rep.Regions) == 0 {
		return
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "REGION\tPAIRS\tMAPE\tBIAS\tPEARSON\tMAXREL\tVERDICT")
	for _, r := range rep.Regions {
		verdict, _, _ := m.Verdict(r.Region, gate)
		pearson := "-"
		if r.Pearson != nil {
			pearson = fmt.Sprintf("%.3f", *r.Pearson)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3g\t%+.3g\t%s\t%.3g\t%s\n",
			r.Name, r.Pairs, r.MAPE, r.Bias, pearson, r.MaxRelErr, verdict)
	}
	tw.Flush()
}
