package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// This file is the server side of the batched wire protocol (see
// eval.BatchItem for the line format):
//
//	POST /v1/batch       JSON array of scenarios in → one NDJSON
//	                     BatchItem per cell out, in completion order,
//	                     flushed per row; Index is the scenario's
//	                     position in the request array
//	POST /v1/sweep/part  {"spec": …, "start": a, "end": b} in → the
//	                     cells of the spec's expanded grid in [a, b),
//	                     same NDJSON framing with grid indices; the
//	                     shard re-derives its slice locally, so cells
//	                     never cross the wire twice
//
// Both endpoints evaluate through the server's shared runner (memoized
// backends, shared cache) on a bounded worker pool, and both cancel
// through the request context: a coordinator that walks away mid-stream
// aborts the slice's remaining cells inside their simulation loops.

// batchBodyLimit bounds a batched request body; scenario wire records
// are ~200 bytes, so this admits tens of thousands of cells.
const batchBodyLimit = 16 << 20

// flushTick bounds how long a completed, encoded row may sit in the
// response buffer before it is flushed to the client: slow cells stream
// promptly, bursts of cheap cells coalesce into ~1/flushTick chunked
// writes per second instead of one per row.
const flushTick = 25 * time.Millisecond

// heartbeatTick is how long a batched stream may stay silent (no cell
// completed) before the server emits a keepalive line, so client-side
// idle watchdogs can tell a stalled shard from a slow cell.
const heartbeatTick = 10 * time.Second

// tickFlusher starts the bounded-staleness flush goroutine shared by
// every streaming handler: buffered rows are flushed within flushTick
// of being encoded, and — when heartbeat is non-nil — a silent stream
// emits a keepalive via heartbeat() every heartbeatTick. mu guards the
// response writer and *dirty; heartbeat is called with mu held and must
// leave *dirty true if it wrote. The returned stop function joins the
// goroutine and must be called before the handler returns.
func tickFlusher(flusher http.Flusher, mu *sync.Mutex, dirty *bool, heartbeat func()) (stop func()) {
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(flushTick)
		defer tick.Stop()
		quiet := time.Now()
		for {
			select {
			case <-tick.C:
				mu.Lock()
				if !*dirty && heartbeat != nil && time.Since(quiet) >= heartbeatTick {
					heartbeat()
				}
				if *dirty {
					flusher.Flush()
					*dirty = false
					quiet = time.Now()
				}
				mu.Unlock()
			case <-stopc:
				return
			}
		}
	}()
	return func() {
		close(stopc)
		wg.Wait()
	}
}

// handleBatch evaluates an explicit scenario list. An empty list is a
// valid batch with an empty response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	data, err := readBodyN(r, batchBodyLimit)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var scs []eval.Scenario
	if err := json.Unmarshal(data, &scs); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding scenario batch: %w", err))
		return
	}
	s.metrics.add("sweep_batch_requests_total", 1)
	s.metrics.add("sweep_batch_cells_total", int64(len(scs)))
	indices, keys := make([]int, len(scs)), make([]string, len(scs))
	for i := range scs {
		indices[i], keys[i] = i, scs[i].Key()
	}
	s.streamItems(w, r, scs, keys, indices)
}

// expansion is one memoized grid: scenarios and their cache keys
// (sweep.ExpandKeyed).
type expansion struct {
	scens []eval.Scenario
	keys  []string
}

// expansions memoizes recent grid expansions keyed by the spec's exact
// wire bytes: a dispatched sweep sends the identical spec with every
// range request, so the shard expands (and key-hashes) the grid once
// per sweep instead of once per range, and every range evaluates its
// cells under the keys the expansion already built. Bounded FIFO — a
// handful of concurrent sweeps at most.
type expansions struct {
	mu      sync.Mutex
	entries map[string]expansion
	order   []string
}

const expansionCacheCap = 8

func (e *expansions) get(specJSON []byte) (expansion, error) {
	key := string(specJSON)
	e.mu.Lock()
	if grid, ok := e.entries[key]; ok {
		e.mu.Unlock()
		return grid, nil
	}
	e.mu.Unlock()
	spec, err := sweep.ParseSpec(specJSON)
	if err != nil {
		return expansion{}, err
	}
	var grid expansion
	if grid.scens, grid.keys, err = sweep.ExpandKeyed(spec); err != nil {
		return expansion{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.entries == nil {
		e.entries = make(map[string]expansion)
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
// grid. The spec travels whole and the shard re-expands it locally —
// expansion is deterministic, so coordinator and shard agree on every
// cell without any scenario crossing the wire (and the expansion is
// memoized across the sweep's range requests).
func (s *Server) handlePart(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r)
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
	if req.Start < 0 || req.End < req.Start || req.End > len(grid.scens) {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("part range [%d, %d) out of bounds for a %d-cell grid", req.Start, req.End, len(grid.scens)))
		return
	}
	s.metrics.add("sweep_part_requests_total", 1)
	s.metrics.add("sweep_part_cells_total", int64(req.End-req.Start))
	slice := grid.scens[req.Start:req.End]
	indices := make([]int, len(slice))
	for i := range slice {
		indices[i] = slice[i].Index
	}
	s.streamItems(w, r, slice, grid.keys[req.Start:req.End], indices)
}

// streamItems evaluates the scenarios on a bounded pool, writing one
// BatchItem NDJSON line per cell as it completes (completion order),
// flushed per row. indices[i] is the Index the i-th scenario's line
// carries, keys[i] its Scenario.Key(). Closing the connection cancels the
// remaining evaluations through the request context.
func (s *Server) streamItems(w http.ResponseWriter, r *http.Request, scens []eval.Scenario, keys []string, indices []int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	if len(scens) == 0 {
		return
	}
	flusher, _ := w.(http.Flusher)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	var rows int64
	dirty := false
	defer func() { s.metrics.add("sweep_stream_rows_total", rows) }()
	write := func(it eval.BatchItem) {
		wmu.Lock()
		defer wmu.Unlock()
		if ctx.Err() != nil {
			return
		}
		if err := enc.Encode(it); err != nil {
			cancel() // client gone; stop the pool
			return
		}
		rows++
		dirty = true
	}
	// Bounded-staleness flush plus keepalives: rows reach the client
	// within flushTick of completing, and a stream silent for
	// heartbeatTick (one slow cell computing) emits a heartbeat line —
	// index -1, no error — so the coordinator's idle watchdog can tell
	// a slow cell from a stalled shard.
	if flusher != nil {
		stop := tickFlusher(flusher, &wmu, &dirty, func() {
			if ctx.Err() == nil && enc.Encode(eval.BatchItem{Index: -1}) == nil {
				dirty = true
			}
		})
		defer stop()
	}

	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scens) {
		workers = len(scens)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				cell, _, err := s.runner.EvaluateKeyed(ctx, scens[i], keys[i])
				if err != nil {
					if ctx.Err() != nil {
						continue // cancellation, not the scenario's fault
					}
					write(eval.BatchItem{Index: indices[i], Error: err.Error()})
					continue
				}
				write(eval.BatchItem{Index: indices[i], Point: &cell})
			}
		}()
	}
	for i := range scens {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(jobs)
	wg.Wait()
}
