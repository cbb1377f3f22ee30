package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// index range [Start, End) of the expanded grid to compute. A zero End
// is the grid's end, so a request carrying only the spec streams the
// whole grid.
type PartRequest struct {
	Spec  json.RawMessage `json:"spec"`
	Start int             `json:"start"`
	End   int             `json:"end"`
}

// batchReply is one decoded cell of a batch response.
type batchReply struct {
	pt  Point
	err error
}

// NewBatchBackend is NewRemoteBackend under the name bench/ calls it by
// for its EvaluateBatch probe; it goes when that harness is next edited.
//
// Deprecated: call NewRemoteBackend; EvaluateBatch is its method.
func NewBatchBackend(addrs []string, opts ...RemoteOption) (*RemoteBackend, error) {
	return NewRemoteBackend(addrs, opts...)
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
