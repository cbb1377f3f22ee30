// Package cliutil holds the small helpers shared by the cmd/ binaries:
// the one main shim, flag-set setup, comma-separated list parsing,
// experiment budget selection, table-or-CSV output, spec loading and
// dumping, timeout contexts, and trace-file tracers.
package cliutil

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/sweep"
)

// Main is every binary's main: it runs the binary's run function under
// a context cancelled by SIGINT/SIGTERM and turns a returned error into
// "name: err" on stderr (see message) and exit status 1. run parses args with its own
// flag set (Flags), writes results to stdout and diagnostics to stderr,
// and never exits the process itself — so its deferred flushes (trace
// files, stores) run on every path, and tests call it in-process.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal cancels ctx; restoring the default disposition
	// then lets a second one kill a run that is slow to unwind.
	context.AfterFunc(ctx, stop)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, message(name, err))
		os.Exit(1)
	}
}

// message is a failed run's stderr line, "name: err". Errors raised by
// the package a binary is named after already start with that name
// ("sweep: unknown builtin spec …"); it is printed once.
func message(name string, err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, name+": ") {
		return msg
	}
	return name + ": " + err.Error()
}

// Flags returns a flag set whose Parse reports bad flags (and -h, as
// flag.ErrHelp) as errors instead of exiting, with usage on stderr.
func Flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Output writes the table to w, as CSV when csv is set.
func Output(w io.Writer, tbl *series.Table, csv bool) {
	if csv {
		fmt.Fprint(w, tbl.CSV())
		return
	}
	fmt.Fprint(w, tbl.String())
}

// DumpJSON pretty-prints v to w; the binaries use it for -json and
// -dumpspec.
func DumpJSON(w io.Writer, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// LoadSpec resolves a -spec argument: "builtin:<name>" through builtin,
// or the path of a JSON spec file through parse (strict decode plus
// validation). It serves both spec kinds — LoadSpec(ref, sweep.Builtin,
// sweep.ParseSpec) and LoadSpec(ref, plan.Builtin, plan.ParseSpec).
func LoadSpec[T any](ref string, builtin func(string) (T, error), parse func([]byte) (T, error)) (spec T, err error) {
	if name, ok := strings.CutPrefix(ref, "builtin:"); ok {
		return builtin(name)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		return spec, err
	}
	if spec, err = parse(data); err != nil {
		return spec, fmt.Errorf("%s: %w", ref, err)
	}
	return spec, nil
}

// Context derives a context honouring the -timeout convention: zero
// means no deadline. The cancel func must always be called.
func Context(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// ParseStrings parses a comma-separated string list such as
// "hosta:8713, hostb:8713", trimming whitespace and dropping empty
// entries; it is the decoder behind list-valued flags like cmd/sweep's
// -shards.
func ParseStrings(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty list %q", s)
	}
	return out, nil
}

// ParseBackends parses the shared -backend flag: a comma-separated
// subset of "model", "sim", "bounds" (e.g. "model,bounds"). The
// analytic model anchors every other backend, so it is always
// included; names are deduplicated and returned in the canonical
// model, sim, bounds order regardless of input order.
func ParseBackends(s string) ([]string, error) {
	names, err := ParseStrings(s)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{"model": true}
	for _, n := range names {
		switch n {
		case "model", "sim", "bounds":
			want[n] = true
		default:
			return nil, fmt.Errorf("cliutil: unknown backend %q (want model, sim or bounds)", n)
		}
	}
	out := make([]string, 0, 3)
	for _, n := range []string{"model", "sim", "bounds"} {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// OpenTracer opens an NDJSON span tracer writing to path, buffered, for
// the -trace-out flag convention. The returned close function flushes
// the tracer and closes the file, returning the first error seen on any
// write; it must be called before the process exits or the tail of the
// trace is lost.
func OpenTracer(path string) (*obs.Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("cliutil: opening trace file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	t := obs.NewTracer(bw)
	closeFn := func() error {
		err := t.Close() // flushes bw, reports sticky write errors
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return t, closeFn, nil
}

// Budget returns the Full budget when full is set, Quick otherwise, with
// the given seed applied.
func Budget(full bool, seed uint64) sweep.Budget {
	b := sweep.Quick
	if full {
		b = sweep.Full
	}
	b.Seed = seed
	return b
}

// CloseInto is the deferred-cleanup convention of the run functions:
// it runs close and joins its error, labelled with what, into the
// run's named result — so a failed flush of a trace or store fails the
// run instead of being lost with the exit. (A calibration map has no
// flush: it is mined from the store in memory and never written.)
func CloseInto(err *error, what string, close func() error) {
	if cerr := close(); cerr != nil {
		*err = errors.Join(*err, fmt.Errorf("%s: %w", what, cerr))
	}
}
