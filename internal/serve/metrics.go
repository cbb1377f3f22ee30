package serve

import (
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the server's own share of the metrics surface: its
// traffic statistics — per endpoint a request counter, an error counter
// (status >= 400) and a latency histogram, plus the handlers' named
// counters (part cells, streamed rows, …) — described through
// obs.Collector like every other component's numbers. GET /metrics
// hands the server's collectors to obs.WriteMetrics, the one place
// that knows the Prometheus text format.

// latencyBuckets are the histogram's cumulative upper bounds, in
// seconds; +Inf is implicit.
var latencyBuckets = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// endpoint aggregates one route's traffic.
type endpoint struct {
	path string

	mu       sync.Mutex
	requests int64
	errors   int64
	buckets  [len(latencyBuckets)]int64 // per bucket; cumulative on Collect
	sum      float64                    // total latency, seconds
}

// observe records one finished request. It is the whole per-request
// accounting cost, and allocates nothing.
func (ep *endpoint) observe(status int, elapsed time.Duration) {
	secs := elapsed.Seconds()
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.requests++
	if status >= 400 {
		ep.errors++
	}
	ep.sum += secs
	for i, ub := range latencyBuckets {
		if secs <= ub {
			ep.buckets[i]++
			break
		}
	}
}

// traffic is the server's own obs.Collector: one endpoint per route —
// registered by handle while the server is built, so the slice is
// read-only once requests flow — and the handlers' named counters.
type traffic struct {
	endpoints []*endpoint // sorted by path

	mu       sync.Mutex
	counters map[string]int64
}

// endpoint registers a route's statistics slot.
func (t *traffic) endpoint(path string) *endpoint {
	ep := &endpoint{path: path}
	t.endpoints = append(t.endpoints, ep)
	sort.Slice(t.endpoints, func(i, j int) bool { return t.endpoints[i].path < t.endpoints[j].path })
	return ep
}

// add bumps a named counter.
func (t *traffic) add(name string, delta int64) {
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += delta
	t.mu.Unlock()
}

// Collect implements obs.Collector. A route appears once it has served
// a request and a named counter once its handler has run, so an idle
// server's scrape carries no zero-valued traffic series.
func (t *traffic) Collect(emit func(obs.Sample)) {
	const duration = "sweep_http_request_duration_seconds"
	for _, ep := range t.endpoints {
		ep.mu.Lock()
		n, errs, buckets, sum := ep.requests, ep.errors, ep.buckets, ep.sum
		ep.mu.Unlock()
		if n == 0 {
			continue
		}
		path := obs.Label("path", ep.path)
		emit(obs.Sample{Name: "sweep_http_requests_total", Kind: obs.KindCounter, Labels: path, Value: float64(n),
			Help: "Requests served, by endpoint."})
		emit(obs.Sample{Name: "sweep_http_errors_total", Kind: obs.KindCounter, Labels: path, Value: float64(errs),
			Help: "Requests answered with status >= 400, by endpoint."})
		var cum int64
		for i, ub := range latencyBuckets {
			cum += buckets[i]
			le := obs.Label("le", strconv.FormatFloat(ub, 'g', -1, 64))
			emit(obs.Sample{Name: duration, Kind: obs.KindBucket, Labels: path + "," + le, Value: float64(cum),
				Help: "Request latency, by endpoint."})
		}
		emit(obs.Sample{Name: duration, Kind: obs.KindBucket, Labels: path + "," + obs.Label("le", "+Inf"), Value: float64(n)})
		emit(obs.Sample{Name: duration, Kind: obs.KindSum, Labels: path, Value: sum})
		emit(obs.Sample{Name: duration, Kind: obs.KindCount, Labels: path, Value: float64(n)})
	}
	t.mu.Lock()
	counters := make([]obs.Sample, 0, len(t.counters))
	for name, v := range t.counters {
		counters = append(counters, obs.Sample{Name: name, Kind: obs.KindCounter, Value: float64(v)})
	}
	t.mu.Unlock()
	for _, c := range counters {
		emit(c)
	}
}

// statusRecorder captures the status code a handler writes, delegating
// Flush so streaming endpoints keep their per-row flush behaviour
// through the instrumentation layer. One serves one request at a time,
// from recorders: no handler keeps its writer past its return.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var recorders = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps a handler with per-endpoint accounting, the request
// span (parented on the client's span when trace headers arrive) and
// the request-scoped structured log record. With no tracer, no logger
// and no inbound trace headers the wrapper adds nothing to the hot
// path beyond the endpoint's observe; the endpoint slot and the span
// name are resolved here, once per route.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	ep, spanName := s.traffic.endpoint(path), "serve:"+path
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.Extract(r.Context(), s.tracer, r.Header)
		ctx, span := obs.StartSpan(ctx, spanName)
		if ctx != r.Context() {
			r = r.WithContext(ctx)
		}
		rec := recorders.Get().(*statusRecorder)
		rec.ResponseWriter = w
		start := time.Now()
		h(rec, r)
		status := rec.status
		*rec = statusRecorder{}
		recorders.Put(rec)
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.End(obs.Int("status", status))
		ep.observe(status, elapsed)
		if s.log != nil {
			lvl := slog.LevelDebug
			switch {
			case status >= 500:
				lvl = slog.LevelError
			case status >= 400:
				lvl = slog.LevelWarn
			}
			attrs := []any{
				"endpoint", path, "status", status,
				"dur_ms", elapsed.Milliseconds(), "remote", r.RemoteAddr,
			}
			if trace, _, ok := obs.TraceIDs(ctx); ok {
				attrs = append(attrs, "trace", trace)
			}
			s.log.Log(ctx, lvl, "request", attrs...)
		}
	}
}

// handleMetrics renders every collector the server holds — its own
// traffic, the process-wide library counters, and the cache when it
// describes itself — in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMetrics(w, s.collectors...) // a write error means the scraper left
}
