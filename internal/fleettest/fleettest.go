// Package fleettest is a shard fleet you can break on purpose: n
// in-process sweep shards, each a serve.Server over its own store.Store,
// behind one http.RoundTripper that applies a Schedule of per-request
// faults. A client takes the Fleet itself as that RoundTripper, through
// its WithTransport option, over the addresses Addrs returns; nothing
// listens on a socket, so a property can build a fresh fleet per input.
//
// The fleet checks one invariant itself: a shard restarted over a store
// cut at byte b holds exactly the complete records in those b bytes; a
// breach fails the test when it ends. Only _test.go files import this
// package (make lint, "one fault harness").
package fleettest

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	// MaxFaults is a schedule's fault budget: faults past it are not read.
	MaxFaults = 6
	// IdleBound is the stream idle bound a fleet's clients run under
	// (eval.WithIdleTimeout): a Stall outlasts it, a Slow fault's
	// heartbeats, one every IdleBound/5, span one and a half of it.
	IdleBound = 500 * time.Millisecond
	// Latency is how long every answer takes to start, as over a network,
	// so that each shard's worker gets its share of a grid's ranges.
	Latency = time.Millisecond
	// PlanEvals is how many /v1/eval requests a Plan schedule's capacity
	// plan sends the whole fleet, rotated over the shards: the refined
	// candidates' operating points and the certification.
	PlanEvals = 5
)

// Kind is what a fault does to the request it hits.
type Kind byte

// The faults, in schedule-letter order ("rbcshkt").
const (
	Refuse  Kind = iota // r: refuse the connection
	Busy                // b: answer 500, 503 or 429, with or without a Retry-After
	Cut                 // c: end the response after some lines, short or torn
	Stall               // s: go silent after some lines, past the idle bound
	Slow                // h: heartbeat past the idle bound after some lines, then answer
	Kill                // k: refuse this request and every later one
	Restart             // t: restart the shard over a truncated store, then answer
)

// routes are the shard routes, by path under /v1/, in schedule-letter
// order ("pce").
var routes = [...]string{"sweep/part", "curve", "eval"}

// Fault is what happens to a shard's Nth request on Route (every request
// when Nth is 0). Arg depends on Kind:
//
//	Busy     0–3 answer 503, 4–7 429, 8–9 500; Arg%4 picks the
//	         Retry-After: none, 0 s, 1 s, 1 h (a 500's is not read)
//	Cut      after Arg/2 lines; an odd Arg tears the next line in half
//	Stall    after Arg lines
//	Slow     after Arg lines
//	Restart  keep Arg/9 of the store's bytes
type Fault struct {
	Shard int
	Route string
	Nth   int
	Kind  Kind
	Arg   int
}

// Schedule is a fleet and the faults it suffers. Plan, Batch and
// MaxFails configure the caller's run (a capacity plan rather than a
// grid, the dispatcher's range bound, the failures that eject a shard);
// the fleet reads Shards and Faults.
type Schedule struct {
	Plan     bool
	Shards   int
	Batch    int
	MaxFails int
	Survivor int
	Faults   []Fault
}

// Decode reads a schedule; every byte string decodes to one. Spaces are
// skipped. Five header bytes — workload (g grid, p plan), shards (1–3),
// batch (0–4, 0 auto), fails (1–3), survivor (0–2) — are followed by
// five bytes per fault: shard (0–2), route (p sweep/part, c curve, e
// eval), nth (0–9), kind (a Kind letter) and arg (0–9). A digit
// or listed letter reads as itself and any other byte wraps into its
// field's range, so "g3110 2p2k0" is a grid on three shards, one cell
// per range, one failure ejects, shard 0 survives, and shard 2 dies at
// its second range.
//
// A plan's eval fault counts among the requests a shard gets of the
// plan's PlanEvals: its nth wraps into [1, PlanEvals/shards], so that a
// fuzzed fault lands on a request the plan sends.
//
// Decoding keeps every run finishable. A single answer (curve, eval) has
// no idle bound, so a stall or heartbeat there tears it instead; a
// heartbeat stretch hits one request, never every one. The survivor is
// never killed or held off for an hour, and it fails fewer requests than
// eject a shard, at most one unless it is the only shard (a retry loop's
// attempts visit every shard twice, or the only one three times), and
// none when another shard holds off for an hour — a retry loop coming
// back to the survivor would then find the held shard first.
func Decode(data []byte) Schedule {
	data = bytes.ReplaceAll(data, []byte{' '}, nil)
	var h [5]byte
	copy(h[:], data)
	s := Schedule{Plan: letter(h[0], "gp") == 1, Shards: pick(h[1], 1, 3), Batch: pick(h[2], 0, 4), MaxFails: pick(h[3], 1, 3)}
	s.Survivor = pick(h[4], 0, 2) % s.Shards
	var faults []Fault
	allowed := s.MaxFails - 1
	if s.Shards > 1 {
		allowed = min(allowed, 1)
	}
	for rest := data[min(len(data), 5):]; len(rest) >= 5 && len(faults) < MaxFaults; rest = rest[5:] {
		f := Fault{Shard: pick(rest[0], 0, 2) % s.Shards, Route: routes[letter(rest[1], "pce")],
			Nth: pick(rest[2], 0, 9), Kind: Kind(letter(rest[3], "rbcshkt")), Arg: pick(rest[4], 0, 9)}
		if (f.Kind == Stall || f.Kind == Slow) && f.Route != routes[0] {
			f.Kind, f.Arg = Cut, 1
		}
		if f.Kind == Slow && f.Nth == 0 {
			f.Nth = 1
		}
		if s.Plan && f.Route == "eval" && f.Nth > 0 {
			f.Nth = 1 + (f.Nth-1)%max(1, PlanEvals/s.Shards)
		}
		if f.hold() == time.Hour && f.Shard != s.Survivor {
			allowed = 0
		}
		faults = append(faults, f)
	}
	for _, f := range faults {
		if failing := f.Kind != Slow && f.Kind != Restart; f.Shard == s.Survivor && failing {
			if f.Kind == Kill || f.hold() == time.Hour || f.Nth == 0 || allowed == 0 {
				continue
			}
			allowed--
		}
		s.Faults = append(s.Faults, f)
	}
	return s
}

// pick reads a byte as a number in [lo, hi]: a digit in range is its
// own value, any other byte wraps into the range.
func pick(b byte, lo, hi int) int {
	if v := int(b) - '0'; v >= lo && v <= hi {
		return v
	}
	return lo + int(b)%(hi-lo+1)
}

// letter reads a byte as an index into letters: a listed letter is its
// own index, any other byte wraps.
func letter(b byte, letters string) int {
	if i := strings.IndexByte(letters, b); i >= 0 {
		return i
	}
	return int(b) % len(letters)
}

// hold is a Busy fault's Retry-After; negative when it sends none.
func (f Fault) hold() time.Duration {
	if f.Kind != Busy {
		return -1
	}
	return [...]time.Duration{-1, 0, time.Second, time.Hour}[f.Arg%4]
}

//go:embed testdata/*.sched
var named embed.FS

// Named returns the bytes of the named schedule testdata/<name>.sched:
// its lines other than '#' comments, joined. It panics on an unknown
// name.
func Named(name string) []byte {
	data, err := named.ReadFile("testdata/" + name + ".sched")
	if err != nil {
		panic(err)
	}
	var out []byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			out = append(out, line...)
		}
	}
	return out
}

// Names lists the named schedules.
func Names() []string {
	files, _ := named.ReadDir("testdata")
	var out []string
	for _, f := range files {
		out = append(out, strings.TrimSuffix(f.Name(), ".sched"))
	}
	return out
}

// Fleet is a schedule's shards behind one RoundTripper, logging every
// request. Build it with New; it is safe for concurrent use.
type Fleet struct {
	Schedule Schedule

	shards    []*shard
	mu        sync.Mutex
	phase     string
	calls     []call
	inflight  int
	idleSince time.Time
	errs      []error
}

// call is one request the fleet received.
type call struct {
	phase string
	shard int
	route string
	at    time.Time
}

// shard is one serve.Server over its own store.
type shard struct {
	dir string
	// mu is held shared while a request is served and exclusively by a
	// restart, which so waits for the old server's requests to end.
	mu    sync.RWMutex
	store *store.Store // nil once a restart failed to reopen it
	srv   *serve.Server
	seen  map[string]int // requests per route; under Fleet.mu
	dead  bool           // under Fleet.mu
}

// New builds the schedule's fleet, each shard over a store in its own
// t.TempDir(). When the test ends the fleet waits for its handlers,
// closes its stores and fails the test for any restart that broke the
// store's invariant.
func New(t testing.TB, s Schedule) *Fleet {
	t.Helper()
	f := &Fleet{Schedule: s, idleSince: time.Now()}
	for i := 0; i < s.Shards; i++ {
		sh := &shard{dir: t.TempDir(), seen: make(map[string]int)}
		st, err := store.Open(sh.dir)
		if err != nil {
			t.Fatal(err)
		}
		sh.store, sh.srv = st, serve.New(serve.WithCache(st))
		f.shards = append(f.shards, sh)
	}
	t.Cleanup(func() {
		for _, sh := range f.shards {
			sh.mu.Lock()
			if sh.store != nil {
				sh.store.Close()
			}
			sh.mu.Unlock()
		}
		for _, err := range f.errs {
			t.Error(err)
		}
	})
	return f
}

// Addrs returns the shards' addresses, shard i at index i.
func (f *Fleet) Addrs() []string {
	addrs := make([]string, len(f.shards))
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard%d", i)
	}
	return addrs
}

// SetPhase labels the requests that arrive from now on.
func (f *Fleet) SetPhase(name string) {
	f.mu.Lock()
	f.phase = name
	f.mu.Unlock()
}

// Count returns how many requests reached shard on route during phase;
// an empty phase counts every phase, a negative shard every shard.
func (f *Fleet) Count(phase string, shard int, route string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		if (phase == "" || c.phase == phase) && (shard < 0 || c.shard == shard) && c.route == route {
			n++
		}
	}
	return n
}

// Gap returns the shortest time from shard's first request on route
// during phase to any later one there; ok is false with no later one.
func (f *Fleet) Gap(phase string, shard int, route string) (gap time.Duration, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first time.Time
	for _, c := range f.calls {
		if c.phase != phase || c.shard != shard || c.route != route {
			continue
		}
		if first.IsZero() {
			first = c.at
		} else if d := c.at.Sub(first); !ok || d < gap {
			gap, ok = d, true
		}
	}
	return gap, ok
}

// Watch returns ctx, cancelled with a cause saying so once the fleet has
// had no request in flight for quiet, counted from the call: a run with
// cells left that asks for none is wedged — a range lost, a hold-off
// applied where it does not belong — and its caller hears it now rather
// than at its deadline. quiet must outlast every legitimate pause: a
// backoff, a 1 s Retry-After.
func (f *Fleet) Watch(ctx context.Context, quiet time.Duration) (context.Context, context.CancelFunc) {
	f.mu.Lock()
	if f.inflight == 0 {
		f.idleSince = time.Now()
	}
	f.mu.Unlock()
	ctx, cancel := context.WithCancelCause(ctx)
	go func() {
		tick := time.NewTicker(quiet / 10)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			f.mu.Lock()
			idle := f.inflight == 0 && time.Since(f.idleSince) > quiet
			f.mu.Unlock()
			if idle {
				cancel(fmt.Errorf("fleettest: no request in flight for %v: the run is wedged", quiet))
				return
			}
		}
	}()
	return ctx, func() { cancel(nil) }
}

// RoundTrip implements http.RoundTripper: it logs the request, applies
// the first fault scheduled for it, and otherwise has the shard answer.
// Every request a fleet client sends is a POST with a body.
func (f *Fleet) RoundTrip(req *http.Request) (*http.Response, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(req.URL.Host, "shard"))
	if err != nil || i < 0 || i >= len(f.shards) {
		req.Body.Close()
		return nil, fmt.Errorf("fleettest: no shard %q", req.URL.Host)
	}
	sh, route := f.shards[i], strings.TrimPrefix(req.URL.Path, "/v1/")
	f.mu.Lock()
	sh.seen[route]++
	var flt *Fault
	for k, c := range f.Schedule.Faults {
		if c.Shard == i && c.Route == route && (c.Nth == 0 || c.Nth == sh.seen[route]) {
			flt = &f.Schedule.Faults[k]
			break
		}
	}
	sh.dead = sh.dead || flt != nil && flt.Kind == Kill
	dead := sh.dead
	f.calls = append(f.calls, call{f.phase, i, route, time.Now()})
	f.inflight++
	f.mu.Unlock()

	switch {
	case dead || flt != nil && flt.Kind == Refuse:
		f.done()
		req.Body.Close()
		return nil, fmt.Errorf("dial tcp %s: connection refused", req.URL.Host)
	case flt != nil && flt.Kind == Busy:
		f.done()
		req.Body.Close()
		code, h := http.StatusServiceUnavailable, http.Header{"Content-Type": {"application/json"}}
		if flt.Arg >= 8 {
			code = http.StatusInternalServerError
		} else if flt.Arg >= 4 {
			code = http.StatusTooManyRequests
		}
		if hold := flt.hold(); hold >= 0 {
			h.Set("Retry-After", strconv.Itoa(int(hold/time.Second)))
		}
		return response(req, code, h, io.NopCloser(strings.NewReader(`{"error":"fleettest: shard busy"}`))), nil
	case flt != nil && flt.Kind == Restart:
		f.restart(i, flt.Arg)
	}
	return f.serve(sh, req, flt)
}

// done ends one request's time in flight.
func (f *Fleet) done() {
	f.mu.Lock()
	if f.inflight--; f.inflight == 0 {
		f.idleSince = time.Now()
	}
	f.mu.Unlock()
}

func response(req *http.Request, code int, h http.Header, body io.ReadCloser) *http.Response {
	return &http.Response{
		Status: fmt.Sprintf("%d %s", code, http.StatusText(code)), StatusCode: code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: body, ContentLength: -1, Request: req,
	}
}

// serve has the shard's server answer req, its body streaming through a
// pipe: the response returns when the handler sends its header, and the
// request's context ending closes the pipe, as a real transport closes
// the connection. A Cut, Stall or Slow fault rewrites the body on its
// way to the client.
func (f *Fleet) serve(sh *shard, req *http.Request, flt *Fault) (*http.Response, error) {
	pr, pw := io.Pipe()
	w := &pipeWriter{hdr: http.Header{}, pw: pw, ready: make(chan struct{})}
	sh.mu.RLock()
	srv := sh.srv
	go func() {
		defer f.done()
		defer sh.mu.RUnlock()
		time.Sleep(Latency)
		srv.ServeHTTP(w, req)
		req.Body.Close()
		w.WriteHeader(http.StatusOK)
		pw.Close()
	}()
	ctx := req.Context()
	stop := context.AfterFunc(ctx, func() { pr.CloseWithError(ctx.Err()) })
	select {
	case <-w.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var body io.ReadCloser = &pipeBody{pr, stop}
	if flt != nil && (flt.Kind == Cut || flt.Kind == Stall || flt.Kind == Slow) {
		body = &faultBody{ReadCloser: body, br: bufio.NewReader(body), ctx: ctx, f: *flt}
	}
	return response(req, w.status, w.sent, body), nil
}

// pipeWriter is a handler's http.ResponseWriter and http.Flusher, its
// body going down a pipe.
type pipeWriter struct {
	hdr, sent http.Header // sent: hdr as the header went out
	status    int
	pw        *io.PipeWriter
	once      sync.Once
	ready     chan struct{} // closed when the header goes out
}

func (w *pipeWriter) Header() http.Header { return w.hdr }

func (w *pipeWriter) WriteHeader(code int) {
	w.once.Do(func() {
		w.status, w.sent = code, w.hdr.Clone()
		close(w.ready)
	})
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

func (w *pipeWriter) Flush() { w.WriteHeader(http.StatusOK) }

// pipeBody is the client's end of the pipe.
type pipeBody struct {
	*io.PipeReader
	stop func() bool // disarms the context's close
}

func (b *pipeBody) Close() error {
	b.stop()
	return b.PipeReader.Close()
}

// faultBody hands a response body on line by line until the fault's
// line count, where it cuts, stalls or heartbeats.
type faultBody struct {
	io.ReadCloser
	br        *bufio.Reader
	ctx       context.Context
	f         Fault
	lines     int    // complete lines handed on
	pending   []byte // the rest of the line being handed on
	fired     bool
	end       bool // nothing follows pending
	beatUntil time.Time
}

func (b *faultBody) Read(p []byte) (int, error) {
	for len(b.pending) == 0 {
		if b.end {
			return 0, io.EOF
		}
		if at := b.f.Arg; !b.fired && (b.f.Kind != Cut && b.lines == at || b.f.Kind == Cut && b.lines == at/2) {
			b.fired = true
			switch b.f.Kind {
			case Cut:
				b.end = true
				if b.f.Arg%2 == 1 {
					line, _ := b.br.ReadBytes('\n')
					b.pending = line[:len(line)/2]
				}
				continue
			case Stall:
				<-b.ctx.Done()
				return 0, b.ctx.Err()
			case Slow:
				b.beatUntil = time.Now().Add(IdleBound * 3 / 2)
			}
		}
		if time.Now().Before(b.beatUntil) {
			select {
			case <-time.After(IdleBound / 5):
			case <-b.ctx.Done():
				return 0, b.ctx.Err()
			}
			b.pending = []byte("{\"index\":-1}\n") // the shards' heartbeat line
			continue
		}
		line, err := b.br.ReadBytes('\n')
		if len(line) == 0 {
			return 0, err
		}
		if line[len(line)-1] == '\n' {
			b.lines++
		}
		b.pending = line
	}
	n := copy(p, b.pending)
	b.pending = b.pending[n:]
	return n, nil
}

// restart replaces shard i's server, once its requests have ended, with
// a new one over its store cut at ninths/9 of its bytes — the segments
// in replay order, as one byte stream — and checks the store holds
// exactly the complete records in the bytes kept: each segment's whole
// lines, for a segment is replayed on its own.
func (f *Fleet) restart(i, ninths int) {
	sh := f.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var err error
	if sh.store != nil {
		err = sh.store.Close()
	}
	segs, _ := filepath.Glob(filepath.Join(sh.dir, "seg-*.ndjson"))
	sort.Strings(segs)
	data := make([][]byte, len(segs))
	size := 0
	for k, seg := range segs {
		var rerr error
		data[k], rerr = os.ReadFile(seg)
		size, err = size+len(data[k]), firstErr(err, rerr)
	}
	want := make(map[string]string)
	for k, left := 0, size*ninths/9; k < len(segs); k++ {
		kept := data[k][:min(len(data[k]), left)]
		left -= len(kept)
		switch {
		case len(kept) == 0:
			err = firstErr(err, os.Remove(segs[k]))
			continue
		case len(kept) < len(data[k]):
			err = firstErr(err, os.Truncate(segs[k], int64(len(kept))))
		}
		for _, line := range bytes.Split(kept, []byte("\n")) {
			var rec struct {
				Key   string          `json:"key"`
				Point json.RawMessage `json:"point"`
			}
			if json.Unmarshal(line, &rec) == nil && rec.Key != "" && rec.Point != nil {
				want[rec.Key] = string(rec.Point)
			}
		}
	}
	st, oerr := store.Open(sh.dir)
	if err = firstErr(err, oerr); err == nil && st.Len() != len(want) {
		err = fmt.Errorf("the store holds %d cell(s); its surviving bytes hold %d complete record(s)", st.Len(), len(want))
	}
	if err == nil {
		st.Range(func(key string, pt eval.Point) bool {
			if got, _ := json.Marshal(pt); string(got) != want[key] {
				err = fmt.Errorf("cell %s is %s; its record says %s", key, got, want[key])
			}
			return err == nil
		})
	}
	if err != nil {
		f.mu.Lock()
		f.errs = append(f.errs, fmt.Errorf("fleettest: shard %d restarted over %d/9 of its store: %w", i, ninths, err))
		f.mu.Unlock()
	}
	sh.store, sh.srv = st, serve.New()
	if st != nil {
		sh.srv = serve.New(serve.WithCache(st))
	}
}

func firstErr(err, next error) error {
	if err != nil {
		return err
	}
	return next
}
