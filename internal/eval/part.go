package eval

import (
	"encoding/json"
	"strconv"
)

// This file is the wire form of a shard's list route: POST
// /v1/sweep/part carries a spec and an index range of its expanded grid
// up and streams one PartItem NDJSON line per cell back, in completion
// order, each flushed the moment the server finishes it. The dispatch
// coordinator (internal/dispatch) consumes it through
// RemoteBackend.Stream.

// PartItem is one NDJSON line of a part response: the answer for the
// cell at Index, or the error that felled it. A line with Index < 0 and
// an Error reports a request-level failure mid-stream (the NDJSON
// analogue of a 5xx after headers are gone); a line with Index < 0 and
// no Error is a heartbeat — the server's "a cell is still computing"
// keepalive, which the transport skips (its idle watchdog resets on any
// decoded line).
type PartItem struct {
	// Index locates the cell in the expanded grid.
	Index int `json:"index"`
	// Point is the evaluated cell; nil when Error is set.
	Point *Point `json:"point,omitempty"`
	// Error reports a per-cell failure (Index >= 0) or a request-level
	// one (Index < 0).
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

// AppendPartRequest appends the wire form of PartRequest{Spec: spec,
// Start: start, End: end} to dst. spec goes in as is, so when it is what
// json.Marshal writes for a spec — compact, HTML-escaped — the bytes are
// json.Marshal's for the request, without its second pass over spec.
func AppendPartRequest(dst, spec []byte, start, end int) []byte {
	dst = append(dst, `{"spec":`...)
	dst = append(dst, spec...)
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(end), 10)
	return append(dst, '}')
}
