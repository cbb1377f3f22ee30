// Command bench is the repository's benchmark ledger: four closed-loop
// workloads run in one process at GOMAXPROCS=2, each through set-up, an
// untraced timed phase (the end-to-end metrics) and — with -trace 1 — a
// traced phase plus direct layer probes (the per-layer metrics). It
// checks every output it produces, prints every metric by name with
// unit and sample count, writes bench/out/result.json, and ends with
// one JSON line for the driver. See README.md beside this file.
//
//	go run ./bench                      all four workloads, traced, 30 s each
//	go run ./bench -workload sim-figure3 -seed 7 -seconds 10 -trace 0
//	go run ./bench -append bench/history.ndjson
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var appendTo string
	var compare, updateGolden bool
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (model-sweep, general-sweep, sim-figure3, fleet-session); empty runs all four")
	fs.Uint64Var(&cfg.seed, "seed", 1, "the only source of variation: sim budget seed and the fleet probes; goldens are checked at seed 1")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of each workload's untraced timed phase")
	fs.IntVar(&trace, "trace", 1, "1 adds the traced phase and layer probes (all four workloads) and reports the per-layer metrics; 0 reports the end-to-end metrics only")
	fs.BoolVar(&cfg.smoke, "smoke", false, "CI-sized grids, one pass each; numbers are not recorded")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result.json, traces and scratch stores")
	fs.StringVar(&appendTo, "append", "", "append the result as one line to this history file")
	fs.BoolVar(&compare, "compare", false, "compare two result files: bench -compare baseline.json candidate.json")
	fs.BoolVar(&updateGolden, "update-golden", false, "rewrite bench/golden from this run (seed 1, full sizes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	cfg.trace = trace != 0
	if cfg.smoke {
		cfg.seconds = 0
		if appendTo != "" || updateGolden {
			fmt.Fprintln(stderr, "bench: smoke numbers are never recorded")
			return 2
		}
	}
	if updateGolden {
		if cfg.seed != 1 || !cfg.trace || cfg.workload != "" {
			fmt.Fprintln(stderr, "bench: -update-golden needs seed 1, -trace 1 and all workloads")
			return 2
		}
		cfg.updateGolden = filepath.Join("bench", "golden")
	}

	return execute(cfg, appendTo, stdout, stderr)
}

// execute runs cfg, prints and writes the result, and returns the exit
// status: 0 only when every output check passed.
func execute(cfg config, appendTo string, stdout, stderr io.Writer) int {
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printResult(stdout, res)
	if !cfg.smoke {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(data, '\n'), 0o644)
		}
		if err == nil && appendTo != "" && res.Correct {
			err = appendHistory(appendTo, res)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := driverLine(res, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// driverLine is the last line of output: one JSON object with exactly
// the keys correct, attempted, failed and metrics. An untraced run
// reports the end-to-end metrics of -workload; a traced run reports the
// per-layer metrics — every workload's remaining metrics under its
// prefix, then the layers' own. Run over all workloads at once (no
// -workload), end-to-end names carry an @workload suffix.
func driverLine(res *result, cfg config) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	e2e := make(map[string]bool)
	for _, d := range endToEnd() {
		e2e[d.name] = true
	}
	for _, w := range res.Workloads {
		for _, r := range w.Rows {
			switch {
			case !e2e[r.Name]:
				if cfg.trace {
					metrics[short[w.Name]+"."+r.Name] = value{r.Median, r.Unit}
				}
			case cfg.workload == "":
				metrics[r.Name+"@"+w.Name] = value{r.Median, r.Unit}
			case cfg.workload == w.Name && !cfg.trace:
				metrics[r.Name] = value{r.Median, r.Unit}
			}
		}
	}
	if cfg.trace {
		for _, r := range res.Layers {
			metrics[r.Name] = value{r.Median, r.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

func printResult(w io.Writer, res *result) {
	p := res.Provenance
	fmt.Fprintf(w, "bench ledger: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per workload\n",
		p.Commit, p.Go, p.CPU, p.NumCPU, p.GOMAXPROCS, p.Seed, p.Seconds)
	fmt.Fprintln(w, "accuracy is model vs simulator only: the paper's own digitised curves are not in the repository")
	printRow := func(r row, note string) {
		fmt.Fprintf(w, "  %-32s %14.6g %-11s q1 %-12.6g q3 %-12.6g n=%-6d %s\n", r.Name, r.Median, r.Unit, r.Q1, r.Q3, r.N, note)
	}
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n%s (%d passes)\n", wl.Name, wl.Passes)
		for _, r := range wl.Rows {
			printRow(r, "")
		}
		if t := wl.Trace; t != nil {
			fmt.Fprintf(w, "  traced: %d passes, %.1f ms, %d spans (%.2f per unit of work), tracing overhead %.2f%%, spans cover %.1f%% of wall\n",
				t.Passes, t.WallMS, t.Spans, wl.SpansPerCell, wl.TraceOverheadPct, 100*t.SumRatio)
			for _, l := range t.Layers {
				fmt.Fprintf(w, "    %-12s %10.2f ms %6.1f%%  %d spans\n", l.Layer, l.SelfMS, 100*l.Share, l.Spans)
			}
		}
	}
	if len(res.Layers) > 0 {
		fmt.Fprintln(w, "\nper-layer")
		for i, r := range res.Layers {
			printRow(r, layerMetrics[i].layer+" -> "+layerMetrics[i].moves)
		}
	}
	fmt.Fprintf(w, "\nattempted %d, failed %d, fail_ratio %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, problem := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", problem)
	}
}
