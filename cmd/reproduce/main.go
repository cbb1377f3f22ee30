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
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/sweep"
)

func main() { cliutil.Main("reproduce", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cliutil.Flags("reproduce", stderr)
	var (
		out      = fs.String("out", "results", "output directory")
		full     = fs.Bool("full", false, "use the report-quality simulation budget")
		scale    = fs.String("scale", "paper", "machine sizes: paper (N<=1024) or small (N<=256)")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		timeout  = fs.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		list     = fs.Bool("list", false, "list the experiments and exit")
		only     = fs.String("only", "", "run only these experiment IDs (comma-separated) and print to stdout")
		csvOut   = fs.Bool("csv", false, "with -only: emit CSV")
		jsonOut  = fs.Bool("json", false, "with -only: emit JSON")
		dump     = fs.Bool("dumpspec", false, "with -only: print the experiment's sweep spec as JSON and exit")
		specFile = fs.String("spec", "", "with -only ID: run this spec (an edited -dumpspec file, or builtin:<name>) through the experiment's renderer")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale != "paper" && *scale != "small" {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *list {
		for _, e := range exp.All {
			kind := "sweep spec"
			if e.Spec == nil {
				kind = "bespoke"
			}
			fmt.Fprintf(stdout, "%-6s %-15s %-11s %s\n", e.ID, e.Artifact+".txt", kind, e.Title)
		}
		return nil
	}
	ctx, cancel := cliutil.Context(ctx, *timeout)
	defer cancel()
	budget := cliutil.Budget(*full, *seed)

	if *only == "" {
		if *csvOut || *jsonOut || *dump || *specFile != "" {
			return errors.New("-csv, -json, -dumpspec and -spec need -only")
		}
		summary, err := exp.RunAll(ctx, exp.RunAllConfig{
			Dir:    *out,
			Budget: budget,
			Scale:  *scale,
			Log:    stderr,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, summary)
		fmt.Fprintf(stdout, "\nartifacts written to %s/\n", *out)
		return nil
	}

	ids, err := cliutil.ParseStrings(*only)
	if err != nil {
		return err
	}
	if *specFile != "" && len(ids) != 1 {
		return errors.New("-spec needs exactly one -only ID")
	}
	runner := sweep.NewRunner(sweep.WithCache(sweep.NewCache()))
	for _, id := range ids {
		e, err := exp.Lookup(id)
		if err != nil {
			return err
		}
		if *dump {
			if e.Spec == nil {
				return fmt.Errorf("%s is not sweep-backed: it has no spec", e.ID)
			}
			spec, err := e.Spec(*scale, budget)
			if err != nil {
				return err
			}
			if err := cliutil.DumpJSON(stdout, spec); err != nil {
				return err
			}
			continue
		}
		var res exp.Output
		if *specFile != "" {
			var spec sweep.Spec
			if spec, err = cliutil.LoadSpec(*specFile, sweep.Builtin, sweep.ParseSpec); err == nil {
				res, err = e.RunSpec(ctx, runner, spec)
			}
		} else {
			res, err = e.Run(ctx, runner, *scale, budget)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case *jsonOut:
			if err := cliutil.DumpJSON(stdout, res.JSON); err != nil {
				return err
			}
		case *csvOut:
			fmt.Fprint(stdout, res.CSV)
		default:
			fmt.Fprint(stdout, res.Text)
		}
	}
	return nil
}
