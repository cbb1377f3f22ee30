package eval

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RemoteBackend is the fleet transport: every request this module sends
// to a sweep shard (see internal/serve and cmd/sweepd) — per-cell
// /v1/eval, and the dispatch coordinator's /v1/sweep/part ranges and one
// /v1/curve request per grid — is built and classified here. It is not
// an Evaluator: a fleet reaches a sweep.Runner only as its Scheduler
// (internal/dispatch). Single-shot requests are sharded round-robin
// across the configured addresses, and their transient failures
// (connection errors, 5xx and 429 responses, torn answers) are retried
// with exponential backoff, rotating to the next shard on every attempt.
// A stream is one attempt against the shard its caller names (Stream).
// Safe for concurrent use.
//
// The backend describes no single curve: a grid's curves are one
// /v1/curve request over the grid's spec (Curves), which a coordinator
// and its shards must therefore speak alike — they upgrade together.
type RemoteBackend struct {
	addrs   []string          // normalized base URLs, in round-robin order
	rt      http.RoundTripper // nil: http.DefaultTransport, read at each request
	next    atomic.Uint64
	retries int
	backoff time.Duration
	single  time.Duration // flat bound on one single-shot request
	idle    time.Duration // progress bound on one NDJSON stream
}

// RemoteOption configures the fleet transport.
type RemoteOption func(*RemoteBackend)

// WithTransport sends every request through rt instead of
// http.DefaultTransport (a nil rt keeps the default, read at each
// request, so a decorator installed there later still sees every trip).
// The deadlines are the backend's whatever carries the bytes: a
// single-shot request is bounded at 30 s, a stream by the idle watchdog
// (WithIdleTimeout), and both by the request context.
func WithTransport(rt http.RoundTripper) RemoteOption {
	return func(b *RemoteBackend) { b.rt = rt }
}

// WithRetry sets the per-request attempt budget and the base backoff
// delay (doubled after every failed attempt, capped at 5 s; see Backoff).
func WithRetry(attempts int, backoff time.Duration) RemoteOption {
	return func(b *RemoteBackend) { b.retries, b.backoff = attempts, backoff }
}

// WithIdleTimeout sets the stream progress watchdog: a shard that
// accepts a /v1/sweep/part request but delivers no header, cell or
// heartbeat for this long is treated as failed — the dispatcher steals
// the range's remainder (default 60s; 0 disables). A flat deadline would
// kill long legitimate streams; an idle bound only kills stalled ones.
func WithIdleTimeout(t time.Duration) RemoteOption {
	return func(b *RemoteBackend) { b.idle = t }
}

// NewRemoteBackend builds a backend over the given server addresses
// ("host:port" or full "http://…" URLs). At least one address is
// required; duplicates and empty entries are dropped.
func NewRemoteBackend(addrs []string, opts ...RemoteOption) (*RemoteBackend, error) {
	b := &RemoteBackend{
		backoff: 100 * time.Millisecond,
		single:  30 * time.Second,
		idle:    60 * time.Second,
	}
	b.addrs = normalizeAddrs(addrs)
	if len(b.addrs) == 0 {
		return nil, fmt.Errorf("eval: remote backend needs at least one server address")
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.retries <= 0 {
		b.retries = max(3, 2*len(b.addrs))
	}
	return b, nil
}

// normalizeAddrs cleans a server address list: entries are trimmed,
// given an http:// scheme when they carry none, stripped of trailing
// slashes, and deduplicated; empties are dropped. The dispatch
// coordinator builds its shard list from Addrs, so equal fleets compare
// equal.
func normalizeAddrs(addrs []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		a = strings.TrimRight(a, "/")
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Addrs returns the normalized server addresses, in round-robin order.
func (b *RemoteBackend) Addrs() []string { return append([]string(nil), b.addrs...) }

// Evaluate answers one scenario in one /v1/eval round trip (with
// retries): the cell the shard's built-in stack computes. The scenario
// travels as AppendScenario writes it and the shard's canonical answer is
// scanned by ParsePoint (readPoint), so a probe builds no reflective
// encoder or decoder on this side of the wire.
func (b *RemoteBackend) Evaluate(ctx context.Context, sc Scenario) (Point, error) {
	body, err := AppendScenario(make([]byte, 0, 256), &sc)
	if err != nil {
		return Point{}, fmt.Errorf("eval: remote: encoding scenario: %w", err)
	}
	var p Point
	err = b.retry(ctx, func(addr string) error {
		url := addr + "/v1/eval"
		return b.post(ctx, url, body, b.single, false, func(r io.Reader, _ func()) error {
			return readPoint(r, &p, url)
		})
	})
	if err != nil {
		return Point{}, err
	}
	return p, nil
}

// NewBatchBackend is NewRemoteBackend under the name bench/ calls it by
// for its EvaluateBatch probe; both go when that harness is next edited.
//
// Deprecated: call NewRemoteBackend.
func NewBatchBackend(addrs []string, opts ...RemoteOption) (*RemoteBackend, error) {
	return NewRemoteBackend(addrs, opts...)
}

// EvaluateBatch answers scs one Evaluate call at a time and returns their
// points in request order; the first failure fails the call and names its
// scenario, and an empty list sends no request. It is the bench's door
// only: a list of cells reaches a fleet as a grid, through
// internal/dispatch.
func (b *RemoteBackend) EvaluateBatch(ctx context.Context, scs []Scenario) ([]Point, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	pts := make([]Point, len(scs))
	for i, sc := range scs {
		var err error
		if pts[i], err = b.Evaluate(ctx, sc); err != nil {
			return nil, fmt.Errorf("eval: batch: scenario %d: %w", i, err)
		}
	}
	return pts, nil
}

// answerBufs holds readPoint's buffers: a canonical answer is a few
// hundred bytes, and a buffer an interface's Read fills lives on the
// heap, so one is reused rather than allocated per round trip.
var answerBufs = sync.Pool{New: func() any { return new([512]byte) }}

// readPoint reads a /v1/eval answer into p. The canonical answer — what
// AppendPoint writes and a newline — is scanned out of a pooled buffer;
// any other body, or one too long for the buffer, goes to decodeReply,
// which reads its first JSON value as encoding/json does.
func readPoint(r io.Reader, p *Point, url string) error {
	buf := answerBufs.Get().(*[512]byte)
	defer answerBufs.Put(buf)
	n, err := io.ReadFull(r, buf[:])
	switch err {
	case io.EOF, io.ErrUnexpectedEOF: // the whole body is buf[:n]
		data := buf[:n]
		if rest, ok := ParsePoint(data, p); ok && (len(rest) == 0 || string(rest) == "\n") {
			return nil
		}
		r = bytes.NewReader(data)
	case nil: // longer than any canonical answer
		r = io.MultiReader(bytes.NewReader(buf[:]), r)
	default:
		return &transientError{err: fmt.Errorf("eval: remote: %s: decoding response: %w", url, err)}
	}
	var q Point // the fallback's own: p stays off the heap on the scan path
	if err := decodeReply(r, &q, url); err != nil {
		return err
	}
	*p = q
	return nil
}

// Curves asks the fleet for a grid's curve context in one /v1/curve round
// trip (with retries): spec is the grid's sweep spec — the bytes a
// /v1/sweep/part request carries as its spec — and the answer is one
// CurveDesc (model name, D̄, saturation anchor) per curve, in grid order.
// The caller's ctx bounds the retries, so a cancelled sweep does not
// block in curve resolution.
func (b *RemoteBackend) Curves(ctx context.Context, spec []byte) ([]CurveDesc, error) {
	var out []CurveDesc
	err := b.retry(ctx, func(addr string) error {
		url := addr + "/v1/curve"
		return b.post(ctx, url, spec, b.single, false, func(r io.Reader, _ func()) error {
			out = nil // a retried attempt starts from a clean value
			return decodeReply(r, &out, url)
		})
	})
	return out, err
}

// decodeReply decodes the first JSON value of a single-shot endpoint's
// answer into v. A body that does not hold one is transient: another
// shard, or a later attempt, may answer whole.
func decodeReply(r io.Reader, v any, url string) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return &transientError{err: fmt.Errorf("eval: remote: %s: decoding response: %w", url, err)}
	}
	return nil
}

// Stream POSTs body to path on shard — one of Addrs — and hands the
// NDJSON PartItem answer to fn, one call per cell with an index in
// [lo, hi), each index at most once. It is a single attempt, and the
// caller decides what a failure means: Transient tells a shard's failure
// from a verdict. An error from fn ends the stream and is returned as
// is. The item fn sees, and the Point behind it, may be reused for the
// next line: fn copies what it keeps.
func (b *RemoteBackend) Stream(ctx context.Context, shard, path string, body []byte, lo, hi int, fn func(*PartItem) error) error {
	url := shard + path
	return b.post(ctx, url, body, b.idle, true, func(r io.Reader, alive func()) error {
		return readItems(r, alive, url, lo, hi, fn)
	})
}

// transientError marks a failure another shard or a later attempt may
// not repeat, with the hold-off a 429/503 response asked for.
type transientError struct {
	err   error
	after time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient reports whether err is a transport failure worth retrying —
// a connection error, a 5xx or 429 response, a torn, short or stalled
// stream — as opposed to a verdict no shard will answer differently,
// and how long the server asked callers to hold off (zero without a
// Retry-After).
func Transient(err error) (holdOff time.Duration, ok bool) {
	var te *transientError
	if errors.As(err, &te) {
		return te.after, true
	}
	return 0, false
}

// retry runs attempt against successive shards until it succeeds or
// fails permanently. Calls start round-robin across the fleet, and each
// transient failure moves the call on to its next shard, so its attempts
// visit every shard before any twice. Retries back off exponentially,
// stretched to a Retry-After only when the attempt goes back to the shard
// that sent it: one shard's hold-off never delays another. The retry
// budget is capped by the request context as well as the attempt count:
// a delay that cannot complete before the context's deadline is not
// slept at all.
func (b *RemoteBackend) retry(ctx context.Context, attempt func(addr string) error) error {
	var last *transientError       // the latest failure
	var holds map[string]time.Time // per shard, the end of the hold-off it asked for
	first := b.next.Add(1) - 1
	for n := 0; n < b.retries; n++ {
		addr := b.addrs[(first+uint64(n))%uint64(len(b.addrs))]
		if n > 0 {
			delay := max(Backoff(b.backoff, n), time.Until(holds[addr]))
			if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < delay {
				return fmt.Errorf("eval: remote: giving up after %d attempt(s): next retry in %v outlives the context: %w",
					n, delay, last.err)
			}
			if err := sleep(ctx, delay); err != nil {
				return err
			}
		}
		err := attempt(addr)
		if err == nil {
			return nil
		}
		var te *transientError // errors.As's target, allocated on a failure only
		if !errors.As(err, &te) {
			return err // a permanent failure
		}
		last = te
		if last.after > 0 {
			if holds == nil {
				holds = make(map[string]time.Time)
			}
			holds[addr] = time.Now().Add(last.after)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("eval: remote: all %d attempts across %d shard(s) failed: %w",
		b.retries, len(b.addrs), last.err)
}

// maxBackoff caps every retry delay Backoff computes.
const maxBackoff = 5 * time.Second

// Backoff is the one exponential backoff rule of the fleet's clients:
// the delay before retry n (n >= 1) is base doubled n-1 times, capped at
// 5 s, so it never decreases in n and never wraps, however long a run of
// failures grows. RemoteBackend's retry loop and the dispatcher's shard
// workers both sleep it.
func Backoff(base time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// jsonType is every request's Content-Type value, shared: a transport
// reads a request's header and never writes it.
var jsonType = []string{"application/json"}

// post performs one request, one RoundTrip on the backend's transport,
// and hands the 200 response's body to consume. Connection errors, 5xx
// responses and 429s are transient (with the server's Retry-After
// hold-off); any other non-200 response is a permanent error carrying
// the server's message. A positive bound arms the watchdog: the request
// is cancelled — a transient failure — once bound passes. On a stream
// consume rearms it through alive, so the bound is on progress, which is
// what defends a caller against a shard that accepts the connection and
// then hangs; a single-shot request's bound is flat, and its alive does
// nothing.
func (b *RemoteBackend) post(ctx context.Context, url string, body []byte, bound time.Duration, stream bool, consume func(r io.Reader, alive func()) error) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	alive := func() {}
	if bound > 0 {
		watchdog := time.AfterFunc(bound, cancel)
		defer watchdog.Stop()
		if stream {
			alive = func() { watchdog.Reset(bound) }
		}
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("eval: remote: %w", err)
	}
	req.Header["Content-Type"] = jsonType
	obs.Inject(ctx, req.Header)
	rt := b.rt
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return &transientError{err: fmt.Errorf("eval: remote: %s: %w", url, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("eval: remote: %s: %s%s", url, resp.Status, serverError(resp.Body))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			return &transientError{err: err, after: parseRetryAfter(resp)}
		}
		return err
	}
	return consume(resp.Body, alive)
}

// readItems decodes one NDJSON PartItem stream. Every decoded line —
// heartbeats included, which are otherwise skipped — proves the shard
// alive. Torn lines, mid-stream request-level errors and streams that
// end short of hi-lo distinct cells are transient: the cells already
// handed to fn stand, the rest can be recomputed elsewhere. An index
// outside [lo, hi) or a cell carrying neither point nor error is a
// protocol breach, permanent.
//
// Success lines in the canonical form (AppendItem) are scanned straight
// out of the read buffer; the first line that is anything else — an
// error, a heartbeat, another producer's formatting, a torn tail — hands
// it and the rest of the stream to a json.Decoder, so what the stream may
// contain and how each defect is classified are encoding/json's. On the
// scan path fn sees the same *PartItem, and the same Point behind it,
// on every call: it must copy what it keeps (dispatch's deliver does).
func readItems(r io.Reader, alive func(), url string, lo, hi int, fn func(*PartItem) error) error {
	s := itemStream{alive: alive, url: url, lo: lo, hi: hi, fn: fn, seen: make([]bool, hi-lo)}
	br := bufio.NewReader(r)
	var pt Point
	it := PartItem{Point: &pt}
	for {
		line, err := br.ReadSlice('\n')
		if len(line) == 0 {
			if err == io.EOF {
				return s.end()
			}
			return s.torn(err)
		}
		var ok bool
		if it.Index, ok = parseItem(line, &pt); !ok {
			return s.decode(io.MultiReader(bytes.NewReader(bytes.Clone(line)), br))
		}
		if done, err := s.take(&it); done {
			return err
		}
	}
}

// itemStream is the protocol state of one PartItem stream, whichever
// decoder feeds it.
type itemStream struct {
	alive  func()
	url    string
	lo, hi int
	fn     func(*PartItem) error
	seen   []bool
	n      int // distinct cells handed to fn
}

// decode is the encoding/json path: every line r still holds, through a
// json.Decoder.
func (s *itemStream) decode(r io.Reader) error {
	dec := json.NewDecoder(r)
	for {
		var it PartItem
		if err := dec.Decode(&it); err == io.EOF {
			return s.end()
		} else if err != nil {
			return s.torn(err)
		}
		if done, err := s.take(&it); done {
			return err
		}
	}
}

// take applies one decoded line; done ends the stream with err.
func (s *itemStream) take(it *PartItem) (done bool, err error) {
	s.alive()
	if it.Index < 0 {
		if it.Error == "" {
			return false, nil // heartbeat: the shard is alive, a cell is just slow
		}
		return true, &transientError{err: fmt.Errorf("eval: remote: %s: server failed mid-stream: %s", s.url, it.Error)}
	}
	if it.Index < s.lo || it.Index >= s.hi {
		return true, fmt.Errorf("eval: remote: %s: item index %d outside [%d, %d)", s.url, it.Index, s.lo, s.hi)
	}
	if it.Point == nil && it.Error == "" {
		return true, fmt.Errorf("eval: remote: %s: item %d carries neither point nor error", s.url, it.Index)
	}
	if s.seen[it.Index-s.lo] {
		return false, nil
	}
	s.seen[it.Index-s.lo] = true
	s.n++
	if err := s.fn(it); err != nil {
		return true, err
	}
	return false, nil
}

// torn is a stream that broke mid-line or stopped being JSON: transient.
func (s *itemStream) torn(err error) error {
	return &transientError{err: fmt.Errorf("eval: remote: %s: torn response stream after %d of %d item(s): %w", s.url, s.n, s.hi-s.lo, err)}
}

// end is the verdict at end of stream: short of hi-lo cells is transient.
func (s *itemStream) end() error {
	if s.n < s.hi-s.lo {
		return &transientError{err: fmt.Errorf("eval: remote: %s: short response stream: %d of %d item(s)", s.url, s.n, s.hi-s.lo)}
	}
	return nil
}

// parseRetryAfter extracts the Retry-After header of a 429 or 503
// response, in either of its RFC 9110 forms (delay seconds or HTTP
// date); anything else — other statuses, absent or malformed headers —
// is a zero hold-off.
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return 0
	}
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(h); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// serverError extracts the {"error": …} message of an error response.
func serverError(r io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return ""
	}
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &payload) == nil && payload.Error != "" {
		return ": " + payload.Error
	}
	if msg := strings.TrimSpace(string(data)); msg != "" {
		return ": " + msg
	}
	return ""
}

// sleep waits for d or until ctx ends, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
