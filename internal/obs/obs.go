// Package obs is the stdlib-only observability core: span-style trace
// events emitted as NDJSON, trace context propagated through contexts
// and HTTP headers, and a process-wide counter registry that the serve
// layer folds into its /metrics renderer.
//
// The design goal is that traces are *diffable*: span IDs are derived
// deterministically (FNV-64a) from the trace ID, parent ID, span name
// and — when the caller has one — a stable domain key such as a
// scenario key. Two runs of the same sweep over the same fleet produce
// byte-comparable trees modulo timings.
//
// Everything is nil-safe: a nil *Tracer, a context without a trace, or
// a nil *Span all degrade to no-ops with zero allocations, so
// instrumentation can stay unconditionally in hot paths.
package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span as it appears on the wire: a single
// NDJSON line written when the span ends. Attrs with NaN values are
// replaced by nil and infinities by signed strings so the line always
// marshals.
type Event struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Tracer serializes completed spans to a writer, one JSON object per
// line. It owns no goroutines: End marshals and writes inline under a
// mutex, so closing a tracer can never leak. Write errors are sticky
// and reported by Close.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	seq atomic.Uint64
	err error
}

// NewTracer returns a tracer writing NDJSON span events to w. The
// writer is used under the tracer's own mutex and needs no locking of
// its own.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Close flushes the underlying writer when it supports flushing
// (e.g. *bufio.Writer) and returns the first error seen on any write.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.w.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

func (t *Tracer) emit(ev *Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		// Attr sanitizing makes this unreachable; keep the tracer
		// alive regardless.
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	if t.err == nil {
		if _, err := t.w.Write(line); err != nil {
			t.err = err
		}
	}
	t.mu.Unlock()
}

// Attr is one typed key/value pair attached to a span. Its value is
// held unboxed, so building an attr allocates nothing; it is boxed only
// when a recording span stores it.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64 // int64 bits, float64 bits, or bool as 0/1
	str  string
}

type attrKind uint8

const (
	kindNil attrKind = iota
	kindString
	kindInt
	kindBool
	kindFloat
)

// String returns a string-valued attr.
func String(k, v string) Attr { return Attr{Key: k, kind: kindString, str: v} }

// Int returns an int-valued attr.
func Int(k string, v int) Attr { return Int64(k, int64(v)) }

// Int64 returns an int64-valued attr.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: kindInt, num: uint64(v)} }

// Bool returns a bool-valued attr.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Float returns a float-valued attr. NaN becomes nil and infinities
// become "+Inf"/"-Inf" strings so the event always marshals.
func Float(k string, v float64) Attr {
	switch {
	case math.IsNaN(v):
		return Attr{Key: k}
	case math.IsInf(v, 1):
		return String(k, "+Inf")
	case math.IsInf(v, -1):
		return String(k, "-Inf")
	}
	return Attr{Key: k, kind: kindFloat, num: math.Float64bits(v)}
}

// value boxes the attr's value for a recorded event.
func (a Attr) value() any {
	switch a.kind {
	case kindString:
		return a.str
	case kindInt:
		return int64(a.num)
	case kindBool:
		return a.num != 0
	case kindFloat:
		return math.Float64frombits(a.num)
	}
	return nil
}

// Span is one in-flight span. All methods are safe on a nil receiver,
// which is what StartSpan returns when tracing is disabled.
type Span struct {
	t      *Tracer
	trace  string
	id     string
	parent string
	name   string
	start  time.Time
	wallUS int64

	mu    sync.Mutex
	attrs map[string]any
	done  bool
}

// traceCtx is the value carried in a context: the sink (nil in a
// process that only forwards trace IDs) plus the current trace and
// span IDs.
type traceCtx struct {
	tracer *Tracer
	trace  string
	span   string
	// cur is the span itself when it was started in this process (nil
	// for IDs extracted from headers); Annotate writes to it.
	cur *Span
}

type ctxKey struct{}

// WithTracer returns a context that starts new root spans on t. A nil
// tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, traceCtx{tracer: t})
}

// withRemote returns a context carrying an externally supplied trace
// and parent span ID (extracted from HTTP headers) sinking to t, which
// may be nil when the process only forwards.
func withRemote(ctx context.Context, t *Tracer, trace, span string) context.Context {
	return context.WithValue(ctx, ctxKey{}, traceCtx{tracer: t, trace: trace, span: span})
}

// TraceIDs reports the trace and span IDs carried by ctx, if any.
func TraceIDs(ctx context.Context) (trace, span string, ok bool) {
	tc, ok := ctx.Value(ctxKey{}).(traceCtx)
	if !ok || tc.trace == "" {
		return "", "", false
	}
	return tc.trace, tc.span, true
}

// Enabled reports whether spans started from ctx will be recorded.
func Enabled(ctx context.Context) bool {
	_, ok := recording(ctx)
	return ok
}

// StartSpan starts a span named name as a child of the span carried by
// ctx (or as a trace root when there is none). Its ID is derived from
// a per-tracer sequence number, so it is deterministic only for
// single-threaded callers; concurrent layers with a stable domain key
// should use StartSpanKeyed. Returns ctx unchanged and a nil span when
// tracing is disabled.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tc, ok := recording(ctx)
	if !ok {
		return ctx, nil
	}
	return startSpan(ctx, tc, name, "#"+formatID(tc.tracer.seq.Add(1)))
}

// StartSpanKeyed starts a span whose ID is derived from (trace,
// parent, name, key) instead of a sequence number, making it stable
// across runs and thread schedules as long as key is stable — e.g. a
// scenario key for per-cell spans.
func StartSpanKeyed(ctx context.Context, name, key string) (context.Context, *Span) {
	tc, ok := recording(ctx)
	if !ok {
		return ctx, nil
	}
	return startSpan(ctx, tc, name, key)
}

// StartSpanFor is StartSpanKeyed for a caller that holds the keyed value
// rather than its key: k.Key() is built only when the span will be
// recorded, so an untraced hot path never pays for the key. It is generic
// so that a struct-valued k (an eval.Scenario) is passed as itself, not
// boxed into an interface.
func StartSpanFor[K interface{ Key() string }](ctx context.Context, name string, k K) (context.Context, *Span) {
	tc, ok := recording(ctx)
	if !ok {
		return ctx, nil
	}
	return startSpan(ctx, tc, name, k.Key())
}

// recording returns ctx's trace context when spans started from it are
// recorded.
func recording(ctx context.Context) (traceCtx, bool) {
	tc, ok := ctx.Value(ctxKey{}).(traceCtx)
	return tc, ok && tc.tracer != nil
}

func startSpan(ctx context.Context, tc traceCtx, name, key string) (context.Context, *Span) {
	now := time.Now()
	s := &Span{
		t:      tc.tracer,
		parent: tc.span,
		name:   name,
		start:  now,
		wallUS: now.UnixMicro(),
	}
	if tc.trace == "" {
		// Root span: the trace ID is the root's own ID, derived
		// without a trace component.
		s.id = deriveID("", "", name, key)
		s.trace = s.id
	} else {
		s.trace = tc.trace
		s.id = deriveID(tc.trace, tc.span, name, key)
	}
	return context.WithValue(ctx, ctxKey{}, traceCtx{tracer: tc.tracer, trace: s.trace, span: s.id, cur: s}), s
}

// Annotate attaches attrs to the span ctx was derived from — the one
// returned alongside ctx by StartSpan — so a callee can describe its
// work on its caller's span. A no-op when tracing is disabled or the
// span has ended.
func Annotate(ctx context.Context, attrs ...Attr) {
	if tc, ok := ctx.Value(ctxKey{}).(traceCtx); ok {
		for _, a := range attrs {
			tc.cur.SetAttr(a)
		}
	}
}

// SetAttr attaches an attr to the span before it ends. Safe for
// concurrent use and a no-op on a nil span.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		if s.attrs == nil {
			s.attrs = make(map[string]any)
		}
		s.attrs[a.Key] = a.value()
	}
	s.mu.Unlock()
}

// End completes the span, merging attrs over any set earlier, and
// emits its NDJSON event. Subsequent calls are no-ops.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	if len(attrs) > 0 && s.attrs == nil {
		s.attrs = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		s.attrs[a.Key] = a.value()
	}
	ev := &Event{
		Trace:   s.trace,
		Span:    s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.wallUS,
		DurUS:   dur.Microseconds(),
		Attrs:   s.attrs,
	}
	s.mu.Unlock()
	s.t.emit(ev)
}

// fnv-64a, inlined so the disabled path never allocates a hash.Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Separator byte so ("ab","c") and ("a","bc") hash apart.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

func deriveID(trace, parent, name, key string) string {
	h := uint64(fnvOffset64)
	h = fnvAdd(h, trace)
	h = fnvAdd(h, parent)
	h = fnvAdd(h, name)
	h = fnvAdd(h, key)
	return formatID(h)
}

const hexdigits = "0123456789abcdef"

func formatID(h uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}
