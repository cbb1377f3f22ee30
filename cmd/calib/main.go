// Command calib mines a persistent result store into a calibration map
// and reports model-vs-sim accuracy per region: every cached cell that
// carries both an analytic prediction and a simulator measurement
// becomes a calibration pair, bucketed by topology, message length,
// policy, workload and load band (see internal/calib and
// docs/calibration.md). The map persists as calib-map.json next to the
// store segments, so repeated runs only mine cells the map has not seen.
//
// With -check the command gates instead of reporting: it exits non-zero
// when the map is empty, carries a non-finite MAPE, or is stale against
// the store (cells the map has not observed) — the freshness gate.
//
// Usage:
//
//	calib -store DIR                 # mine DIR, report, save DIR/calib-map.json
//	calib -store DIR -json           # the report plus mining stats as JSON
//	calib -store DIR -check          # freshness/coverage gate (no output on ok)
//	calib -store DIR -out map.json   # save the map elsewhere
//	calib -map map.json -json        # report a saved map without a store
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/store"
)

func main() { cliutil.Main("calib", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("calib", stderr)
	var (
		storeDir = fs.String("store", "", "persistent result store directory to mine (cmd/sweep -cache-dir)")
		mapPath  = fs.String("map", "", "calibration map file to load and update (default <store>/calib-map.json)")
		outPath  = fs.String("out", "", "where to save the updated map (default: the -map path)")
		jsonOut  = fs.Bool("json", false, "emit the report plus mining stats as JSON")
		check    = fs.Bool("check", false, "gate: non-zero exit when the map is empty, has a non-finite MAPE, or is stale against the store")
		maxMAPE  = fs.Float64("max-mape", 0.1, "trust threshold annotated per region in the report")
		minPairs = fs.Int("min-pairs", 3, "minimum pairs per region for a trust verdict")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *storeDir == "" && *mapPath == "" {
		return errors.New("nothing to do: pass -store DIR to mine a store, or -map FILE to report a saved map")
	}
	path := *mapPath
	if path == "" {
		path = calib.MapPath(*storeDir)
	}
	save := *outPath
	if save == "" {
		save = path
	}

	m, err := calib.LoadMap(path)
	if err != nil {
		return err
	}

	var stale, added int
	var mineSecs float64
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close() // only read
		stale = m.Staleness(st)
		start := time.Now()
		added = m.Mine(ctx, st)
		mineSecs = time.Since(start).Seconds()
		if err := m.Save(save); err != nil {
			return err
		}
	}

	rep := m.Report()
	if *check {
		return runCheck(stdout, rep, stale)
	}

	if *jsonOut {
		out := struct {
			calib.Report
			StaleCells  int     `json:"stale_cells"`
			PairsAdded  int     `json:"pairs_added"`
			MineMS      float64 `json:"mine_ms"`
			PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
		}{Report: rep, StaleCells: stale, PairsAdded: added, MineMS: mineSecs * 1e3}
		if mineSecs > 0 {
			out.PairsPerSec = float64(added) / mineSecs
		}
		return cliutil.DumpJSON(stdout, out)
	}

	printReport(stdout, rep, stale, added, mineSecs, calib.Gate{MaxMAPE: *maxMAPE, MinPairs: *minPairs}, m)
	return nil
}

// runCheck is the -check gate: regions exist, every MAPE is finite, and
// the map has observed every sim-carrying cell the store holds.
func runCheck(w io.Writer, rep calib.Report, stale int) error {
	if len(rep.Regions) == 0 {
		return errors.New("calibration check failed: map has no regions (mine a with-sim store first)")
	}
	for _, r := range rep.Regions {
		if math.IsNaN(r.MAPE) || math.IsInf(r.MAPE, 0) {
			return fmt.Errorf("calibration check failed: region %s has non-finite MAPE", r.Name)
		}
	}
	if stale > 0 {
		return fmt.Errorf("calibration check failed: %d store cell(s) not yet observed by the map", stale)
	}
	fmt.Fprintf(w, "calibration ok: %d pair(s) across %d region(s), map fresh\n", rep.Pairs, len(rep.Regions))
	return nil
}

// printReport renders the human-readable region table with the verdict
// each region would get under the given gate.
func printReport(w io.Writer, rep calib.Report, stale, added int, mineSecs float64, gate calib.Gate, m *calib.Map) {
	fmt.Fprintf(w, "calibration map: %d pair(s) across %d region(s)", rep.Pairs, len(rep.Regions))
	if added > 0 {
		fmt.Fprintf(w, "; mined %d new pair(s) in %.0f ms", added, mineSecs*1e3)
	}
	if stale > 0 {
		fmt.Fprintf(w, "; was %d cell(s) stale before mining", stale)
	}
	fmt.Fprintln(w)
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
