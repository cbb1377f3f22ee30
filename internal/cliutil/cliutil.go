// Package cliutil holds the small helpers shared by the cmd/ binaries:
// logger setup, comma-separated list parsing, experiment budget
// selection, table-or-CSV output, spec loading and dumping, timeout
// contexts, and trace-file tracers.
package cliutil

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/sweep"
)

// Setup configures the standard logger the binaries share: no
// timestamps, the binary's name as prefix.
func Setup(name string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
}

// Output writes the table to stdout, as CSV when csv is set.
func Output(tbl *series.Table, csv bool) {
	if csv {
		fmt.Fprint(os.Stdout, tbl.CSV())
		return
	}
	fmt.Print(tbl.String())
}

// DumpJSON pretty-prints v to stdout; the binaries use it for -dumpspec.
func DumpJSON(v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// LoadSpec resolves a -spec argument: "builtin:<name>" or the path of a
// JSON sweep spec, decoded strictly and validated.
func LoadSpec(ref string) (sweep.Spec, error) {
	if name, ok := strings.CutPrefix(ref, "builtin:"); ok {
		return sweep.Builtin(name)
	}
	data, err := os.ReadFile(ref)
	if err != nil {
		return sweep.Spec{}, err
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return sweep.Spec{}, fmt.Errorf("%s: %w", ref, err)
	}
	return spec, nil
}

// Context returns a context honouring the -timeout convention: zero
// means no deadline. The cancel func must always be called.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), timeout)
}

// ParseStrings parses a comma-separated string list such as
// "hosta:8713, hostb:8713", trimming whitespace and dropping empty
// entries; it is the decoder behind list-valued flags like cmd/sweep's
// -addr.
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
