package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the client side of the batched wire protocol: POST
// /v1/batch carries a JSON array of Scenarios up and streams one
// BatchItem NDJSON line per cell back, in completion order, each flushed
// the moment the server finishes it. The same line format answers POST
// /v1/sweep/part (spec plus index range in), where Index is the cell's
// position in the expanded grid rather than in the request array; the
// dispatch coordinator (internal/dispatch) consumes that form.

// BatchItem is one NDJSON line of a batched evaluation response: the
// answer for the scenario at Index, or the error that felled it. A line
// with Index < 0 and an Error reports a request-level failure
// mid-stream (the NDJSON analogue of a 5xx after headers are gone); a
// line with Index < 0 and no Error is a heartbeat — the server's "a
// cell is still computing" keepalive, which the transport skips (its idle
// watchdog resets on any decoded line).
type BatchItem struct {
	// Index locates the cell: the scenario's position in the request
	// array (/v1/batch) or in the expanded grid (/v1/sweep/part).
	Index int `json:"index"`
	// Point is the evaluated cell; nil when Error is set.
	Point *Point `json:"point,omitempty"`
	// Error reports a per-scenario failure (Index >= 0) or a
	// request-level one (Index < 0).
	Error string `json:"error,omitempty"`
}

// PartRequest is the wire form of POST /v1/sweep/part, a slice of a
// spec's deterministic grid: the full spec — as raw JSON, so the shard
// can memoize its expansion on the exact bytes — plus the half-open
// index range [Start, End) of the expanded grid to compute.
type PartRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Start int             `json:"start"`
	End   int             `json:"end"`
}

// BatchBackend is a client-side Evaluator over the batched wire
// protocol: concurrent Evaluate calls are coalesced into one /v1/batch
// request per flush window, amortising the HTTP round trip that
// dominates RemoteBackend's per-cell cost on cheap scenarios. A batch
// flushes when it reaches the size bound or when the latency window
// (2ms after its first scenario arrives) expires, whichever comes first;
// explicit batches go through EvaluateBatch. It is only the coalescer:
// shard rotation, retries, the stream watchdog, CacheTag, Curve and
// EvaluateBatch all belong to the RemoteBackend it embeds, so cells are
// interchangeable between the per-cell and batched transports. Safe for
// concurrent use.
type BatchBackend struct {
	*RemoteBackend

	mu      sync.Mutex
	pending []*batchCall
	timer   *time.Timer
}

// batchCall is one coalesced Evaluate waiting for its cell.
type batchCall struct {
	sc   Scenario
	ctx  context.Context
	done chan batchReply // buffered; the flusher never blocks on it
}

// batchReply is one decoded cell of a batch response.
type batchReply struct {
	pt  Point
	err error
}

// NewBatchBackend builds a batching backend over the given server
// addresses ("host:port" or full URLs); at least one is required.
func NewBatchBackend(addrs []string, opts ...RemoteOption) (*BatchBackend, error) {
	rb, err := NewRemoteBackend(addrs, opts...)
	if err != nil {
		return nil, err
	}
	return &BatchBackend{RemoteBackend: rb}, nil
}

// Name implements Evaluator.
func (b *BatchBackend) Name() string { return "batch" }

// Evaluate implements Evaluator by joining the current coalescing
// window: the call parks until its batch flushes (size bound reached, or
// the latency window expires) and its cell comes back. A cancelled ctx
// abandons only this caller; the batch completes for the rest.
func (b *BatchBackend) Evaluate(ctx context.Context, sc Scenario) (Point, error) {
	call := &batchCall{sc: sc, ctx: ctx, done: make(chan batchReply, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, call)
	if len(b.pending) >= b.maxBatch {
		batch := b.pending
		b.pending = nil
		if b.timer != nil {
			b.timer.Stop()
			b.timer = nil
		}
		b.mu.Unlock()
		go b.flush(batch)
	} else {
		if b.timer == nil {
			b.timer = time.AfterFunc(b.window, b.flushWindow)
		}
		b.mu.Unlock()
	}
	select {
	case r := <-call.done:
		return r.pt, r.err
	case <-ctx.Done():
		return Point{}, ctx.Err()
	}
}

// flushWindow is the latency-window timer callback.
func (b *BatchBackend) flushWindow() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.timer = nil
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush sends one coalesced batch and distributes the replies. The
// request context is independent of any single caller: it ends only
// when every caller in the batch has walked away.
func (b *BatchBackend) flush(batch []*batchCall) {
	// The request context outlives any single caller, but the batch
	// still joins the first traced caller's trace so its server-side
	// spans stitch into that sweep's tree.
	base := context.Background()
	for _, c := range batch {
		if _, _, ok := obs.TraceIDs(c.ctx); ok {
			base = obs.CopyTrace(base, c.ctx)
			break
		}
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	var live atomic.Int64
	live.Store(int64(len(batch)))
	for _, c := range batch {
		go func(c *batchCall) {
			select {
			case <-ctx.Done():
			case <-c.ctx.Done():
				if live.Add(-1) == 0 {
					cancel()
				}
			}
		}(c)
	}
	scs := make([]Scenario, len(batch))
	for i, c := range batch {
		scs[i] = c.sc
	}
	items, err := b.callBatch(ctx, scs)
	for i, c := range batch {
		if err != nil {
			c.done <- batchReply{err: err}
			continue
		}
		c.done <- items[i]
	}
}

// EvaluateBatch evaluates the scenarios in one explicit /v1/batch
// request (with retries) and returns their points in request order. An
// empty batch is answered locally without touching the wire. Any
// per-scenario failure fails the whole call; callers needing per-cell
// outcomes drive the protocol through the dispatch coordinator instead.
func (b *RemoteBackend) EvaluateBatch(ctx context.Context, scs []Scenario) ([]Point, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	items, err := b.callBatch(ctx, scs)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(scs))
	for i, it := range items {
		if it.err != nil {
			return nil, fmt.Errorf("eval: batch: scenario %d: %w", i, it.err)
		}
		pts[i] = it.pt
	}
	return pts, nil
}

// callBatch streams one batch through the retry loop and returns every
// cell's outcome in request order. Per-scenario errors are the server's
// verdict and permanent; a transient failure recomputes the whole batch
// on the next shard, served mostly from the fleet's caches.
func (b *RemoteBackend) callBatch(ctx context.Context, scs []Scenario) ([]batchReply, error) {
	body, err := json.Marshal(scs)
	if err != nil {
		return nil, fmt.Errorf("eval: batch: encoding scenarios: %w", err)
	}
	items := make([]batchReply, len(scs))
	err = b.Stream(ctx, "", "/v1/batch", body, 0, len(scs), func(it *BatchItem) error {
		if it.Error != "" {
			items[it.Index] = batchReply{err: errors.New(it.Error)}
		} else {
			items[it.Index] = batchReply{pt: *it.Point}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}
