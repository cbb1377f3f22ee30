// Command reproduce regenerates the paper's evaluation from the
// experiment table (exp.All): Figure 3, the T1/T2 validation tables,
// ablations A1–A3, extensions X1/X2, and the V1 per-hop wait validation.
//
// Usage:
//
//	reproduce [-out results] [-full] [-scale paper|small] [-seed 1] [-timeout 0]
//	reproduce -list
//	reproduce -only ID[,ID] [-csv | -json | -dumpspec | -spec file.json|builtin:name]
//
// Without -only every experiment runs and one artifact each plus a
// SUMMARY.txt lands in -out. With -only the named experiments print
// their artifact to stdout instead (-csv, -json for machine-readable
// forms). Every experiment but X2 and V1 is a sweep spec with a
// renderer: -dumpspec prints the spec as JSON, and -spec runs an edited
// copy through the same renderer — that is how a figure is regenerated
// at other sizes, message lengths or loads.
//
// The default quick budget finishes in seconds; -full uses report-quality
// simulation windows. -scale small caps machine sizes at 256 processors
// for constrained CI machines.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/sweep"
)

func main() {
	cliutil.Setup("reproduce")
	var (
		out      = flag.String("out", "results", "output directory")
		full     = flag.Bool("full", false, "use the report-quality simulation budget")
		scale    = flag.String("scale", "paper", "machine sizes: paper (N<=1024) or small (N<=256)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		list     = flag.Bool("list", false, "list the experiments and exit")
		only     = flag.String("only", "", "run only these experiment IDs (comma-separated) and print to stdout")
		csvOut   = flag.Bool("csv", false, "with -only: emit CSV")
		jsonOut  = flag.Bool("json", false, "with -only: emit JSON")
		dump     = flag.Bool("dumpspec", false, "with -only: print the experiment's sweep spec as JSON and exit")
		specFile = flag.String("spec", "", "with -only ID: run this spec (an edited -dumpspec file, or builtin:<name>) through the experiment's renderer")
	)
	flag.Parse()
	if *scale != "paper" && *scale != "small" {
		log.Fatalf("unknown scale %q", *scale)
	}
	if *list {
		for _, e := range exp.All {
			kind := "sweep spec"
			if e.Spec == nil {
				kind = "bespoke"
			}
			fmt.Printf("%-6s %-15s %-11s %s\n", e.ID, e.Artifact+".txt", kind, e.Title)
		}
		return
	}
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()
	budget := cliutil.Budget(*full, *seed)

	if *only == "" {
		if *csvOut || *jsonOut || *dump || *specFile != "" {
			log.Fatal("-csv, -json, -dumpspec and -spec need -only")
		}
		summary, err := exp.RunAll(ctx, exp.RunAllConfig{
			Dir:    *out,
			Budget: budget,
			Scale:  *scale,
			Log:    os.Stderr,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(summary)
		fmt.Printf("\nartifacts written to %s/\n", *out)
		return
	}

	ids, err := cliutil.ParseStrings(*only)
	if err != nil {
		log.Fatal(err)
	}
	if *specFile != "" && len(ids) != 1 {
		log.Fatal("-spec needs exactly one -only ID")
	}
	runner := sweep.NewRunner(sweep.WithCache(sweep.NewCache()))
	for _, id := range ids {
		e, err := exp.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		if *dump {
			if e.Spec == nil {
				log.Fatalf("%s is not sweep-backed: it has no spec", e.ID)
			}
			spec, err := e.Spec(*scale, budget)
			if err != nil {
				log.Fatal(err)
			}
			if err := cliutil.DumpJSON(spec); err != nil {
				log.Fatal(err)
			}
			continue
		}
		var res exp.Output
		if *specFile != "" {
			var spec sweep.Spec
			if spec, err = cliutil.LoadSpec(*specFile); err == nil {
				res, err = e.RunSpec(ctx, runner, spec)
			}
		} else {
			res, err = e.Run(ctx, runner, *scale, budget)
		}
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		switch {
		case *jsonOut:
			if err := cliutil.DumpJSON(res.JSON); err != nil {
				log.Fatal(err)
			}
		case *csvOut:
			fmt.Print(res.CSV)
		default:
			fmt.Print(res.Text)
		}
	}
}
