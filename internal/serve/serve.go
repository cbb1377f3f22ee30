// Package serve is the shard: the HTTP service over one local sweep
// engine. A long-lived server process (cmd/sweepd) owns the memoized
// Evaluator backends and — optionally — a persistent result store, and
// answers every request from that one runner; a fleet is coordinated by
// the process that asks (internal/dispatch), never by a server. It
// exposes:
//
//	POST /v1/sweep/part spec + optional grid index range in → those
//	                    cells out as NDJSON PartItems, one line per
//	                    cell as it completes; the shard re-derives the
//	                    grid locally, and a request with no end streams
//	                    the whole grid (see part.go)
//	POST /v1/eval       one eval.Scenario in → one eval.Point out; the
//	                    endpoint behind eval.RemoteBackend
//	POST /v1/curve      sweep.Spec in → one eval.CurveDesc (model name,
//	                    D̄, saturation anchor) per curve, in grid order
//	GET  /healthz       liveness plus cache statistics
//	GET  /metrics       Prometheus text metrics: obs.WriteMetrics over
//	                    the server's collectors (its own traffic, see
//	                    metrics.go; the library counters; the cache it
//	                    was given)
//
// A shard keeps no calibration map: calibration is mined from its store
// by whoever reads it (cmd/calib -store, cmd/plan -cache-dir).
//
// A cell that fails is that cell's {"index":N,"error":…} line; the
// stream goes on. The server shares one Runner (and therefore one
// backend set and one cache) across all requests, so repeated and
// overlapping work is served from cache; with a persistent store
// attached, across restarts too.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Server handles the sweep-service HTTP API. Construct with New; it
// implements http.Handler.
type Server struct {
	mux     *http.ServeMux
	runner  *sweep.Runner
	cache   sweep.CacheStore
	workers int
	started time.Time
	traffic traffic
	// collectors is everything GET /metrics renders and /healthz reads.
	collectors []obs.Collector
	tracer     *obs.Tracer
	log        *slog.Logger
	// expansions memoizes grid expansions across a dispatched sweep's
	// /v1/curve and /v1/sweep/part requests.
	expansions expansions
}

// Option configures a Server.
type Option func(*Server)

// WithCache attaches a result cache (an in-memory sweep.Cache, a
// persistent store.Store, …) shared by every request.
func WithCache(c sweep.CacheStore) Option { return func(s *Server) { s.cache = c } }

// WithWorkers bounds the worker pool of every sweep the server runs.
func WithWorkers(n int) Option { return func(s *Server) { s.workers = n } }

// WithTracer attaches an obs tracer: every request gets a span —
// parented on the client's span when the request carries the
// X-Obs-Trace/X-Obs-Span headers — and handlers propagate the trace
// context into the engine layers below, so shard-side traces stitch
// into the coordinator's tree.
func WithTracer(t *obs.Tracer) Option { return func(s *Server) { s.tracer = t } }

// WithLogger attaches a structured logger: one request-scoped record
// per served request (endpoint, status, duration, remote addr, trace
// ID). Level filtering belongs to the logger's handler.
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.log = l } }

// New builds the server. Its runner is a default sweep.Runner: the
// built-in stack, shared across requests — so models, saturation searches
// and simulator networks are built once per server instance, not once per
// request — writing the cache lines cmd/sweep and cmd/plan write, with or
// without a fleet, so they all share a store. Every endpoint answers from
// that runner.
func New(opts ...Option) *Server {
	s := &Server{mux: http.NewServeMux(), started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	s.runner = sweep.NewRunner(sweep.WithWorkers(s.workers), sweep.WithCache(s.cache))
	// The metrics surface: the server's own traffic and the process-wide
	// library counters, plus each attached component that describes
	// itself (sweep.Cache, store.Store).
	s.collectors = []obs.Collector{&s.traffic, obs.Process}
	if c, ok := s.cache.(obs.Collector); ok {
		s.collectors = append(s.collectors, c)
	}
	s.handle("/v1/sweep/part", post(s.handlePart))
	s.handle("/v1/eval", post(s.handleEval))
	s.handle("/v1/curve", post(s.handleCurve))
	s.handle("/healthz", get(s.handleHealthz))
	s.handle("/metrics", get(s.handleMetrics))
	return s
}

// handle registers a route with per-endpoint metrics instrumentation.
func (s *Server) handle(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, s.instrument(path, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// post and get gate a handler on the request method.
func post(h http.HandlerFunc) http.HandlerFunc { return methodGate(http.MethodPost, h) }
func get(h http.HandlerFunc) http.HandlerFunc  { return methodGate(http.MethodGet, h) }

func methodGate(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed (want %s)", r.Method, method))
			return
		}
		h(w, r)
	}
}

// jsonType is every JSON answer's Content-Type value, shared: the
// server copies a handler's header when it writes it.
var jsonType = []string{"application/json"}

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// maxBody bounds every request body: a longer one is a 400.
const maxBody = 1 << 20

// readBody appends r's body to dst (a nil dst starts at 512 bytes, as
// io.ReadAll does) and returns the extended slice, refusing a body over
// maxBody bytes.
func readBody(r *http.Request, dst []byte) ([]byte, error) {
	defer r.Body.Close()
	if dst == nil {
		dst = make([]byte, 0, 512)
	}
	limit := len(dst) + maxBody + 1 // one byte past the bound tells an overlong body
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Body.Read(dst[len(dst):min(cap(dst), limit)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst) == limit:
			return dst, fmt.Errorf("reading request body: %w", &http.MaxBytesError{Limit: maxBody})
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, fmt.Errorf("reading request body: %w", err)
		}
	}
}

// evalBufs holds /v1/eval's buffers: the body is read into one and the
// answer written over it, and it goes back once the answer is sent —
// unless a large body grew it past maxPooled.
var evalBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooled = 64 << 10

// handleEval answers one scenario: the endpoint behind
// RemoteBackend.Evaluate. A canonical body (eval.AppendScenario's) is
// scanned and any other decoded by encoding/json (eval.DecodeScenario),
// and the cell goes back as eval.AppendPoint writes it, one line in one
// Write: the bytes json.Encoder would write.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	buf := evalBufs.Get().(*[]byte)
	data, err := readBody(r, (*buf)[:0])
	defer func() {
		if cap(data) <= maxPooled {
			*buf = data
			evalBufs.Put(buf)
		}
	}()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var sc eval.Scenario
	if err := eval.DecodeScenario(data, &sc); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cell, cached, err := s.runner.Evaluate(r.Context(), sc)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, err)
		return
	}
	h := w.Header()
	h["Content-Type"] = jsonType
	if cached {
		h.Set("X-Cache", "hit")
	}
	// sc holds no bytes of the body, so its buffer takes the answer.
	data = append(eval.AppendPoint(data[:0], cell), '\n')
	w.Write(data)
}

// handleCurve describes every curve of a grid (model name, D̄, saturation
// anchor), expanding the spec through the memo its ranges share.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r, nil) // the expansion memo keeps it
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	grid, err := s.expansions.get(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	curves, err := s.runner.Curves(r.Context(), grid)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	w.Header()["Content-Type"] = jsonType
	json.NewEncoder(w).Encode(curves)
}

// The module version (and VCS revision, when the binary was built from
// a checkout), resolved once per process.
var buildVersion, buildRevision = func() (version, revision string) {
	version = "(unknown)"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return
}()

// handleHealthz reports liveness, build/version info and cache
// statistics, so a fleet operator can tell which build each shard runs
// from the same probe that checks it is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, revision := buildVersion, buildRevision
	payload := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"go_version":     runtime.Version(),
		"module_version": version,
	}
	if revision != "" {
		payload["vcs_revision"] = revision
	}
	// The cache and store figures are the unlabelled samples of the same
	// collectors /metrics renders; a key is present exactly when the
	// component behind it is.
	vals := make(map[string]float64)
	for _, sm := range obs.Gather(s.collectors...) {
		if sm.Labels == "" {
			vals[sm.Name] = sm.Value
		}
	}
	if cells, ok := vals["sweep_cache_cells"]; ok {
		payload["cache_cells"] = int64(cells)
		payload["cache_hits"] = int64(vals["sweep_cache_hits_total"])
		payload["cache_misses"] = int64(vals["sweep_cache_misses_total"])
	}
	if n, ok := vals["sweep_store_disk_bytes"]; ok {
		payload["store_disk_bytes"] = int64(n)
	}
	w.Header()["Content-Type"] = jsonType
	json.NewEncoder(w).Encode(payload)
}

// Serve serves the API on ln until ctx is cancelled, then shuts down
// gracefully: in-flight requests get grace to finish (their streams
// keep draining), new connections are refused. A zero grace defaults to
// 5 s. It owns ln and closes it; a caller that listened on port 0 reads
// the bound address from ln.Addr() before calling.
func Serve(ctx context.Context, ln net.Listener, grace time.Duration, opts ...Option) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	srv := &http.Server{
		Handler:           New(opts...),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Grace expired with streams still open: force-close the
			// connections, which cancels their request contexts and
			// unwinds the sweeps.
			srv.Close()
			return err
		}
		return nil
	}
}
