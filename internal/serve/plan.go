package serve

import (
	"net/http"

	"repro/internal/plan"
)

// This file is the serving side of the capacity planner (docs/plan.md):
//
//	POST /v1/plan   plan.Spec in → NDJSON stream of plan.Update lines
//	                out: candidates as they are pruned, refined and
//	                certified, the frontier records in rank order, and
//	                a final {"phase":"done","result":…} line carrying
//	                the assembled result. A failing plan delivers
//	                {"error":…} as its final line, mirroring /v1/sweep
//	                framing; disconnecting cancels the search through
//	                the request context.
//
// The search runs on the server's planner: the shared local runner by
// default (memoized backends, shared cache), or — on a front-end whose
// WithSweeper engine is a full plan.Engine, as the dispatch coordinator
// is — that fleet engine, which shards the coarse grid across
// downstream sweepd shards and probes them per-cell.

// handlePlan streams one capacity-planning search.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := plan.ParseSpec(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.traffic.add("sweep_plan_requests_total", 1)
	out := newNDJSON(w, nil)
	defer func() { s.traffic.add("sweep_plan_stream_updates_total", out.close()) }()
	for u := range s.planner.Stream(r.Context(), spec) {
		if u.Err != nil {
			out.fail(u.Err)
			return
		}
		if out.write(u) != nil {
			return // client gone; request-ctx cancellation stops the search
		}
	}
}
