package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// This file is the server side of the list route (see eval.PartItem for
// the line format):
//
//	POST /v1/sweep/part  {"spec": …, "start": a, "end": b} in → the
//	                     cells of the spec's expanded grid in [a, b), one
//	                     NDJSON PartItem per cell out, in completion
//	                     order, flushed per row, with grid indices; the
//	                     shard re-derives its slice locally, so cells
//	                     never cross the wire twice. A zero (absent) end
//	                     is the grid's end: {"spec": …} alone streams
//	                     the whole grid
//
// The route evaluates through the server's shared runner (memoized
// backends, shared cache) on the runner's own bounded pool, and cancels
// through the request context: a coordinator that walks away mid-stream
// aborts the slice's remaining cells inside their simulation loops.

// flushTick bounds how long a completed, encoded row may sit in the
// response buffer before it is flushed to the client: slow cells stream
// promptly, bursts of cheap cells coalesce into ~1/flushTick chunked
// writes per second instead of one per row.
const flushTick = 25 * time.Millisecond

// heartbeatTick is how long a stream may stay silent (no cell
// completed) before the server emits a keepalive line, {"index":-1}, so
// a client-side idle watchdog can tell a slow cell from a stalled shard.
const heartbeatTick = 10 * time.Second

// ndjson is the one streaming response writer, under /v1/sweep/part:
// one PartItem line per write, safe for concurrent writers, flushed to
// the client within flushTick of being encoded.
type ndjson struct {
	mu    sync.Mutex // guards the response writer, buf, lines and dirty
	w     io.Writer
	enc   *json.Encoder // on w
	buf   []byte        // writeItem's line, reused
	lines int64         // cell lines written; keepalive lines are not counted
	dirty bool          // encoded since the last flush
	stopc chan struct{}
	done  chan struct{}
}

// newNDJSON starts an NDJSON response on w. The handler must call close
// before it returns.
func newNDJSON(w http.ResponseWriter) *ndjson {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	n := &ndjson{w: w, enc: json.NewEncoder(w), stopc: make(chan struct{}), done: make(chan struct{})}
	flusher, ok := w.(http.Flusher)
	if !ok {
		close(n.done)
		return n
	}
	go func() {
		defer close(n.done)
		tick := time.NewTicker(flushTick)
		defer tick.Stop()
		quiet := time.Now()
		for {
			select {
			case <-tick.C:
				n.mu.Lock()
				if !n.dirty && time.Since(quiet) >= heartbeatTick {
					n.dirty = n.enc.Encode(eval.PartItem{Index: -1}) == nil
				}
				if n.dirty {
					flusher.Flush()
					n.dirty = false
					quiet = time.Now()
				}
				n.mu.Unlock()
			case <-n.stopc:
				return
			}
		}
	}()
	return n
}

// write encodes v as the stream's next line; an error means the client
// is gone.
func (n *ndjson) write(v any) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.enc.Encode(v)
	if err == nil {
		n.lines++
		n.dirty = true
	}
	return err
}

// writeItem writes a cell's success line, {"index":N,"point":{…}} — the
// hot line of /v1/sweep/part — through the Point codec
// rather than the encoder: the same bytes in one Write, no reflection.
func (n *ndjson) writeItem(index int, pt eval.Point) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.buf = eval.AppendItem(n.buf[:0], index, pt)
	_, err := n.w.Write(n.buf)
	if err == nil {
		n.lines++
		n.dirty = true
	}
	return err
}

// close joins the flush goroutine and returns the payload line count;
// whatever is still buffered goes out when the handler returns.
func (n *ndjson) close() int64 {
	close(n.stopc)
	<-n.done
	return n.lines
}

// expansions memoizes recent grid expansions (sweep.Grid: scenarios and
// their curves' keys) keyed by the spec's exact wire bytes: a dispatched
// sweep sends the identical spec with every range request, so the shard
// expands (and keys) the grid once per sweep instead of once per range,
// and every range evaluates its cells under the curve keys the expansion
// already built. Bounded FIFO — a handful of concurrent sweeps at most.
type expansions struct {
	mu      sync.Mutex
	entries map[string]*sweep.Grid
	order   []string
}

const expansionCacheCap = 8

func (e *expansions) get(specJSON []byte) (*sweep.Grid, error) {
	key := string(specJSON)
	e.mu.Lock()
	if grid, ok := e.entries[key]; ok {
		e.mu.Unlock()
		return grid, nil
	}
	e.mu.Unlock()
	spec, err := sweep.ParseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	grid, err := sweep.ExpandGrid(spec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.entries == nil {
		e.entries = make(map[string]*sweep.Grid)
	}
	if _, ok := e.entries[key]; !ok {
		e.entries[key] = grid
		e.order = append(e.order, key)
		if len(e.order) > expansionCacheCap {
			delete(e.entries, e.order[0])
			e.order = e.order[1:]
		}
	}
	return grid, nil
}

// handlePart evaluates one contiguous slice of a spec's deterministic
// grid — the whole grid when the request names no end. The spec travels
// whole and the shard re-expands it locally — expansion is
// deterministic, so coordinator and shard agree on every cell without
// any scenario crossing the wire (and the expansion is memoized across
// the sweep's range requests).
func (s *Server) handlePart(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r, nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var req eval.PartRequest
	if err := json.Unmarshal(data, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding part request: %w", err))
		return
	}
	grid, err := s.expansions.get(req.Spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.End == 0 {
		req.End = len(grid.Rows)
	}
	if req.Start < 0 || req.End < req.Start || req.End > len(grid.Rows) {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("part range [%d, %d) out of bounds for a %d-cell grid", req.Start, req.End, len(grid.Rows)))
		return
	}
	s.traffic.add("sweep_part_requests_total", 1)
	s.traffic.add("sweep_part_cells_total", int64(req.End-req.Start))
	s.streamItems(w, r, grid, req.Start, req.End)
}

// streamItems answers the cells [lo, hi) of grid through the runner's
// list path, writing one PartItem NDJSON line per cell as it completes
// (completion order): cell i's line carries Index i. A cell's failure is
// that item's error, never the stream's. Closing the connection cancels
// the remaining evaluations through the request context.
func (s *Server) streamItems(w http.ResponseWriter, r *http.Request, grid *sweep.Grid, lo, hi int) {
	out := newNDJSON(w)
	defer func() { s.traffic.add("sweep_stream_rows_total", out.close()) }()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	s.runner.EvaluateList(ctx, grid, lo, hi, func(i int, cell sweep.Cell, err error) {
		if err != nil {
			err = out.write(eval.PartItem{Index: i, Error: err.Error()})
		} else {
			err = out.writeItem(i, cell)
		}
		if err != nil {
			cancel() // client gone; stop the pool
		}
	})
}
