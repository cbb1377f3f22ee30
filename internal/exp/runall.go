package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sweep"
)

// RunAllConfig parameterises a full reproduction run.
type RunAllConfig struct {
	// Dir receives one text/CSV file per experiment plus a SUMMARY.txt.
	Dir string
	// Budget scales every simulation.
	Budget sweep.Budget
	// Scale shrinks the machine sizes for CI runs: "paper" (default,
	// N up to 1024) or "small" (N up to 256).
	Scale string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// RunAll executes every experiment of the table and writes the artifacts
// to cfg.Dir. It returns the summary text. Cancelling ctx aborts the run
// mid-experiment (the simulator checks it inside its cycle loop).
func RunAll(ctx context.Context, cfg RunAllConfig) (string, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(cfg.Dir, name), []byte(content), 0o644)
	}

	// The sweep-backed experiments share one runner (their grids do not
	// overlap, so it carries no cache); progress streams to cfg.Log.
	runner := sweep.NewRunner(
		sweep.WithProgress(func(ev sweep.Event) {
			if ev.Done == ev.Total || ev.Done%10 == 0 {
				fmt.Fprintf(cfg.Log, "  sweep %d/%d cells (%s)\n",
					ev.Done, ev.Total, ev.Scenario.CurveKey())
			}
		}),
	)

	start := time.Now()
	var summary string
	for i := range All {
		e := &All[i]
		fmt.Fprintf(cfg.Log, "running %s (%s)...\n", e.ID, e.Title)
		out, err := e.Run(ctx, runner, cfg.Scale, cfg.Budget)
		if err != nil {
			return "", fmt.Errorf("%s: %w", e.ID, err)
		}
		files := e.Artifact + ".txt"
		if err := write(files, out.Text); err != nil {
			return "", err
		}
		if e.PlotCSV {
			if err := write(e.Artifact+".csv", out.CSV); err != nil {
				return "", err
			}
			files += "/.csv"
		}
		summary += fmt.Sprintf("%-6s %-16s %s\n", e.ID, files, out.Note)
	}
	text := fmt.Sprintf("full reproduction run, %s\n\n", time.Since(start).Round(time.Second)) + summary
	if err := write("SUMMARY.txt", text); err != nil {
		return "", err
	}
	return text, nil
}
