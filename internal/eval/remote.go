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
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RemoteBackend is the fleet transport: every request this module sends
// to a sweep shard (see internal/serve and cmd/sweepd) — per-cell
// /v1/eval, batched /v1/batch, and the dispatch coordinator's
// /v1/sweep/part ranges and one /v1/curve request per grid — is built,
// classified and retried here. It is not an Evaluator: a fleet reaches a
// sweep.Runner only as its Scheduler (internal/dispatch). Requests are
// sharded round-robin across the configured addresses; transient
// failures (connection errors, 5xx and 429 responses, torn, short or
// stalled NDJSON streams) are retried with exponential backoff, rotating
// to the next shard on every attempt. Safe for concurrent use.
//
// The backend describes no single curve: a grid's curves are one
// /v1/curve request over the grid's spec (Curves), which a coordinator
// and its shards must therefore speak alike — they upgrade together.
type RemoteBackend struct {
	addrs   []string // normalized base URLs, in round-robin order
	client  *http.Client
	next    atomic.Uint64
	retries int
	backoff time.Duration
	single  time.Duration // flat bound on one single-shot request; 0 leaves it to the caller's client
	idle    time.Duration // progress bound on one NDJSON stream
}

// RemoteOption configures the fleet transport.
type RemoteOption func(*RemoteBackend)

// WithHTTPClient replaces the default HTTP client, which carries no
// timeout of its own (the transport bounds single-shot requests at 30 s
// and streams by the idle watchdog). A caller-supplied client owns the
// single-shot deadline through its Timeout — simulation-heavy scenarios
// may need a laxer one, or none at all, leaving deadlines to the request
// context; note that a Timeout also bounds whole streams.
func WithHTTPClient(c *http.Client) RemoteOption {
	return func(b *RemoteBackend) { b.client, b.single = c, 0 }
}

// WithRetry sets the per-request attempt budget and the base backoff
// delay (doubled after every failed attempt, capped at 5 s; see Backoff).
func WithRetry(attempts int, backoff time.Duration) RemoteOption {
	return func(b *RemoteBackend) { b.retries, b.backoff = attempts, backoff }
}

// WithIdleTimeout sets the stream progress watchdog: a shard that
// accepts a /v1/batch or /v1/sweep/part request but delivers no header,
// cell or heartbeat for this long is treated as failed — the batch
// retries on the next shard, the dispatcher steals the range's remainder
// (default 60s; 0 disables). A flat deadline would kill long legitimate
// streams; an idle bound only kills stalled ones.
func WithIdleTimeout(t time.Duration) RemoteOption {
	return func(b *RemoteBackend) { b.idle = t }
}

// NewRemoteBackend builds a backend over the given server addresses
// ("host:port" or full "http://…" URLs). At least one address is
// required; duplicates and empty entries are dropped.
func NewRemoteBackend(addrs []string, opts ...RemoteOption) (*RemoteBackend, error) {
	b := &RemoteBackend{
		client:  &http.Client{},
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
// retries): the cell the shard's built-in stack computes.
func (b *RemoteBackend) Evaluate(ctx context.Context, sc Scenario) (Point, error) {
	body, err := json.Marshal(sc)
	if err != nil {
		return Point{}, fmt.Errorf("eval: remote: encoding scenario: %w", err)
	}
	return call[Point](ctx, b, "/v1/eval", body)
}

// Curves asks the fleet for a grid's curve context in one /v1/curve round
// trip (with retries): spec is the grid's sweep spec — the bytes a
// /v1/sweep/part request carries as its spec — and the answer is one
// CurveDesc (model name, D̄, saturation anchor) per curve, in grid order.
// The caller's ctx bounds the retries, so a cancelled sweep does not
// block in curve resolution.
func (b *RemoteBackend) Curves(ctx context.Context, spec []byte) ([]CurveDesc, error) {
	return call[[]CurveDesc](ctx, b, "/v1/curve", spec)
}

// call answers one single-shot endpoint: body is POSTed to path under the
// retry loop and the JSON response decoded into a T.
func call[T any](ctx context.Context, b *RemoteBackend, path string, body []byte) (T, error) {
	var out T
	err := b.retry(ctx, func(addr string) error {
		return b.post(ctx, addr+path, body, b.single, func(r io.Reader, _ func()) error {
			out = *new(T) // a retried attempt starts from a clean value
			if err := json.NewDecoder(r).Decode(&out); err != nil {
				return &transientError{err: fmt.Errorf("eval: remote: %s: decoding response: %w", addr+path, err)}
			}
			return nil
		})
	})
	return out, err
}

// Stream POSTs body to path and hands the NDJSON BatchItem answer to fn,
// one call per cell with an index in [lo, hi), each index at most once.
// With shard empty the request runs under the retry loop, rotating
// shards (fn then sees a retried attempt's cells again); with shard set
// — one of Addrs — it is a single attempt against that shard, and the
// caller decides what a failure means: Transient tells a shard's
// failure from a verdict. An error from fn ends the stream and is
// returned as is. The item fn sees, and the Point behind it, may be
// reused for the next line: fn copies what it keeps.
func (b *RemoteBackend) Stream(ctx context.Context, shard, path string, body []byte, lo, hi int, fn func(*BatchItem) error) error {
	attempt := func(addr string) error {
		return b.post(ctx, addr+path, body, b.idle, func(r io.Reader, alive func()) error {
			return readItems(r, alive, addr+path, lo, hi, fn)
		})
	}
	if shard != "" {
		return attempt(shard)
	}
	return b.retry(ctx, attempt)
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
	var last *transientError
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
		if !errors.As(err, &last) {
			return err // done, or a permanent failure
		}
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

// post performs one request and hands the 200 response's body to
// consume. Connection errors, 5xx responses and 429s are transient (with
// the server's Retry-After hold-off); any other non-200 response is a
// permanent error carrying the server's message. A positive idle arms
// the watchdog: the request is cancelled — a transient failure — unless
// consume calls alive at least that often, which is what defends a
// caller against a shard that accepts the connection and then hangs.
func (b *RemoteBackend) post(ctx context.Context, url string, body []byte, idle time.Duration, consume func(r io.Reader, alive func()) error) error {
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	alive := func() {}
	if idle > 0 {
		watchdog := time.AfterFunc(idle, cancel)
		defer watchdog.Stop()
		alive = func() { watchdog.Reset(idle) }
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("eval: remote: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := b.client.Do(req)
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

// readItems decodes one NDJSON BatchItem stream. Every decoded line —
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
// scan path fn sees the same *BatchItem, and the same Point behind it,
// on every call: it must copy what it keeps (dispatch's deliver and
// callBatch both do).
func readItems(r io.Reader, alive func(), url string, lo, hi int, fn func(*BatchItem) error) error {
	s := itemStream{alive: alive, url: url, lo: lo, hi: hi, fn: fn, seen: make([]bool, hi-lo)}
	br := bufio.NewReader(r)
	var pt Point
	it := BatchItem{Point: &pt}
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

// itemStream is the protocol state of one BatchItem stream, whichever
// decoder feeds it.
type itemStream struct {
	alive  func()
	url    string
	lo, hi int
	fn     func(*BatchItem) error
	seen   []bool
	n      int // distinct cells handed to fn
}

// decode is the encoding/json path: every line r still holds, through a
// json.Decoder.
func (s *itemStream) decode(r io.Reader) error {
	dec := json.NewDecoder(r)
	for {
		var it BatchItem
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
func (s *itemStream) take(it *BatchItem) (done bool, err error) {
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
