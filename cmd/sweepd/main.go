// Command sweepd is the sweep service daemon, and every sweepd is a
// shard: a long-running HTTP server over the Evaluator backends that
// answers sweeps, grid ranges and single-scenario evaluations from its
// own runner, while models, saturation searches and simulator networks
// stay memoized in one process. A fleet of them is coordinated by the
// process that asks (cmd/sweep -shards, cmd/plan -shards, or a
// dispatch.Dispatcher in a program); curl and an eval.RemoteBackend
// talk to one directly. With -cache-dir every computed cell is also
// persisted to an append-only result store and survives restarts.
//
// Usage:
//
//	sweepd                                  # serve on :8713
//	sweepd -addr :9000 -workers 8           # custom port and pool bound
//	sweepd -cache-dir /var/lib/sweepd       # persistent result store
//	sweepd -cache-dir d -cache-max-bytes 64000000   # prune the store at startup
//	sweepd -cache-dir d -cache-max-bytes 64000000 -prune-interval 10m
//	                                        # …and keep it bounded while serving
//	sweepd -compact -cache-dir d            # compact the store and exit
//	sweepd -trace-out trace.ndjson          # NDJSON span traces
//	sweepd -log-level debug                 # structured logs, every request
//	sweepd -debug-addr 127.0.0.1:6060       # pprof on a separate listener
//
// Endpoints (see docs/serve.md): POST /v1/sweep/part (a grid's spec and
// an optional index range in, its cells out as an NDJSON stream; the
// spec alone streams the whole grid), POST /v1/eval (one scenario in,
// its cell out), POST /v1/curve (a grid's spec in, every curve's model
// context out), GET /healthz, GET /metrics (Prometheus text). A coordinator asks /v1/curve in the same spec form
// as /v1/sweep/part, so coordinators and shards upgrade together.
//
// The daemon keeps no calibration map: its store is the record, and
// `calib -store DIR` mines a shard's calibration from the directory,
// even while the daemon is writing it (see docs/calibration.md).
//
// SIGINT/SIGTERM trigger a graceful shutdown: new connections are
// refused, in-flight streams get -grace to finish, then connections are
// force-closed (which cancels their sweeps) and the store and any
// -trace-out tracer are flushed.
//
// Observability (see docs/observability.md): -trace-out writes NDJSON
// span traces (request spans plus the engine spans under them, stitched
// to the caller's trace via the X-Obs-Trace/X-Obs-Span headers);
// -log-level selects the structured-log threshold (debug logs every
// request); -debug-addr serves net/http/pprof on a separate listener,
// so profiling never rides the public mux.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { cliutil.Main("sweepd", run) }

func run(ctx context.Context, args []string, _, stderr io.Writer) (rerr error) {
	fs := cliutil.Flags("sweepd", stderr)
	var (
		addr      = fs.String("addr", ":8713", "listen address")
		cacheDir  = fs.String("cache-dir", "", "persist results to this directory (empty = in-memory only)")
		maxBytes  = fs.Int64("cache-max-bytes", 0, "prune -cache-dir to this many bytes at startup, oldest cells first (0 = unbounded)")
		pruneTick = fs.Duration("prune-interval", 0, "also re-prune -cache-dir to -cache-max-bytes this often while serving (0 = startup only)")
		workers   = fs.Int("workers", 0, "worker pool bound per sweep (0 = GOMAXPROCS)")
		grace     = fs.Duration("grace", 5*time.Second, "graceful-shutdown window for in-flight requests")
		compact   = fs.Bool("compact", false, "compact -cache-dir into one segment and exit")
		traceOut  = fs.String("trace-out", "", "write NDJSON span traces to this file, flushed on shutdown")
		logLevel  = fs.String("log-level", "info", "structured-log threshold: debug, info, warn or error (debug logs every request)")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (never on the public mux)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	var cache sweep.CacheStore = sweep.NewCache()
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "closing store", st.Close)
		if dropped := st.Dropped(); dropped > 0 {
			logger.Warn("store recovery dropped lines that are not cells: corrupt ones, or legacy salted records, which are neither served nor mined and leave disk at the next compact or prune", "dropped", dropped)
		}
		logger.Info("store recovered", "cells", st.Recovered(), "dir", *cacheDir)
		if *maxBytes > 0 {
			// Startup prune: the daemon owns the directory exclusively for
			// its whole lifetime, so pruning here — and periodically below —
			// is safe alongside its own serving traffic.
			evicted, err := st.Prune(*maxBytes)
			if err != nil {
				return err
			}
			size, _ := st.DiskBytes()
			logger.Info("store pruned", "bytes", size, "bound", *maxBytes,
				"evicted", evicted, "live", st.Len())
			if *pruneTick > 0 {
				stop := st.StartAutoPrune(*maxBytes, *pruneTick, func(err error) {
					logger.Error("auto-prune", "err", err)
				})
				defer stop()
				logger.Info("store auto-prune enabled", "interval", *pruneTick, "bound", *maxBytes)
			}
		} else if *pruneTick > 0 {
			return errors.New("-prune-interval needs -cache-max-bytes")
		}
		if *compact {
			if err := st.Compact(); err != nil {
				return err
			}
			logger.Info("store compacted", "live", st.Len())
			return nil
		}
		cache = st
	} else if *compact {
		return errors.New("-compact needs -cache-dir")
	} else if *maxBytes > 0 {
		return errors.New("-cache-max-bytes needs -cache-dir")
	} else if *pruneTick > 0 {
		return errors.New("-prune-interval needs -cache-dir")
	}

	opts := []serve.Option{
		serve.WithCache(cache),
		serve.WithWorkers(*workers),
		serve.WithLogger(logger),
	}
	if *traceOut != "" {
		tracer, closeTracer, err := cliutil.OpenTracer(*traceOut)
		if err != nil {
			return err
		}
		defer cliutil.CloseInto(&rerr, "closing trace", closeTracer)
		opts = append(opts, serve.WithTracer(tracer))
		logger.Info("tracing enabled", "file", *traceOut)
	}

	if *debugAddr != "" {
		// pprof gets its own mux on its own listener: the public mux
		// never exposes /debug, whatever else registers on the default
		// mux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: *debugAddr, Handler: mux}
		defer dbg.Close()
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != http.ErrServerClosed {
				logger.Error("pprof listener", "err", err)
			}
		}()
	}

	// Listening here rather than inside serve lets -addr :0 work: the
	// record carries the address actually bound.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String())
	err = serve.Serve(ctx, ln, *grace, opts...)
	if err != nil && ctx.Err() == nil {
		return err
	}
	if err != nil {
		logger.Warn("shutdown", "err", err)
	} else {
		logger.Info("shutdown: clean")
	}
	return nil
}
