package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func newTestServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(opts...))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRemoteParityFigure3 is the serving subsystem's central pin: the
// paper's Figure 3 grid evaluated cell by cell (one /v1/eval each,
// through a dispatcher's Evaluate) against a live server matches the
// in-process run — models to 1e-9, simulator cells bit for bit — and so
// does its curve metadata, asked of the server through the same
// dispatcher.
func TestRemoteParityFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure3 grid in -short mode")
	}
	spec, err := sweep.Builtin("figure3")
	if err != nil {
		t.Fatal(err)
	}

	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, WithCache(sweep.NewCache()))
	d, err := dispatch.New([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sweep.ExpandGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != len(local.Rows) {
		t.Fatalf("row counts differ: remote %d, local %d", len(g.Rows), len(local.Rows))
	}
	remote := make([]sweep.Row, len(g.Rows))
	errs := make([]error, len(g.Rows))
	d.EvaluateList(context.Background(), g, 0, len(g.Rows), func(i int, cell sweep.Cell, err error) {
		remote[i], errs[i] = sweep.Row{Scenario: g.Rows[i].Scenario, Cell: cell}, err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	for i := range local.Rows {
		lr, rr := local.Rows[i], remote[i]
		if math.Abs(lr.Model-rr.Model) > 1e-9 {
			t.Errorf("row %d: model drifted across the wire: %v vs %v", i, lr.Model, rr.Model)
		}
		if math.Float64bits(lr.Sim) != math.Float64bits(rr.Sim) ||
			math.Float64bits(lr.SimCI) != math.Float64bits(rr.SimCI) {
			t.Errorf("row %d: sim not bit-identical: %v±%v vs %v±%v", i, lr.Sim, lr.SimCI, rr.Sim, rr.SimCI)
		}
		if math.Float64bits(lr.LoadFlits) != math.Float64bits(rr.LoadFlits) ||
			lr.ModelSaturated != rr.ModelSaturated || lr.SimSaturated != rr.SimSaturated {
			t.Errorf("row %d: cell metadata drifted:\n  local  %+v\n  remote %+v", i, lr.Cell, rr.Cell)
		}
	}
	// Curve context is a grid's, asked of the fleet in one request by the
	// one fleet door.
	curves, err := d.Runner.Curves(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != len(local.Curves) {
		t.Fatalf("curve counts differ: remote %d, local %d", len(curves), len(local.Curves))
	}
	for i, lc := range local.Curves {
		rc := curves[i]
		if lc.Model != rc.Model || math.Float64bits(lc.SaturationLoad) != math.Float64bits(rc.SaturationLoad) ||
			math.Float64bits(lc.AvgDist) != math.Float64bits(rc.AvgDist) {
			t.Errorf("curve %d drifted: %+v vs %+v", i, lc, rc)
		}
	}
}

// modelOnlySpec is a small grid that needs no simulator.
func modelOnlySpec() sweep.Spec {
	return sweep.Spec{
		Name:       "model-only",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4, 8},
		Loads:      sweep.LoadSpec{Flits: []float64{0.01, 0.02}},
	}
}

// TestTwoFleetsShareCells: which servers answered is no part of a cell —
// every shard runs the one built-in stack — so a cache filled through one
// fleet is all hits through another, with the rows the first computed.
func TestTwoFleetsShareCells(t *testing.T) {
	srvA := newTestServer(t)
	srvB := newTestServer(t)
	shared := sweep.NewCache()
	spec := modelOnlySpec()
	run := func(addr string) *sweep.Result {
		t.Helper()
		d, err := dispatch.New([]string{addr}, dispatch.WithCache(shared))
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	resA := run(srvA.URL)
	if resA.CacheMisses != len(resA.Rows) {
		t.Fatalf("first run should miss everywhere: %+v", resA)
	}
	resB := run(srvB.URL)
	if resB.CacheHits != len(resB.Rows) {
		t.Errorf("a remote at %s recomputed cells cached from %s (%d/%d hits)",
			srvB.URL, srvA.URL, resB.CacheHits, len(resB.Rows))
	}
	for i := range resB.Rows {
		resB.Rows[i].Cached = false
	}
	got, _ := json.Marshal(resB.Rows)
	want, _ := json.Marshal(resA.Rows)
	if string(got) != string(want) {
		t.Errorf("rows served from the other fleet's cells differ:\n%s\n---\n%s", got, want)
	}
	if shared.Len() != len(resA.Rows) {
		t.Errorf("two fleets left %d lines for %d cells", shared.Len(), len(resA.Rows))
	}
}

// partLines posts a /v1/sweep/part body and returns the stream's lines
// keyed by grid index, failing on a status other than 200, a line that
// is no BatchItem, or an index answered twice.
func partLines(t *testing.T, url, body string) map[int]string {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep/part", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	lines := make(map[int]string)
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var it eval.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		if _, dup := lines[it.Index]; dup {
			t.Fatalf("grid index %d answered twice", it.Index)
		}
		lines[it.Index] = sc.Text()
	}
	return lines
}

// TestSweepStreamsNDJSON pins the one grid stream: a /v1/sweep/part
// request carrying only the spec answers every grid index exactly once,
// as NDJSON BatchItems in completion order, and its lines are byte for
// byte those of the explicit [0, n) range.
func TestSweepStreamsNDJSON(t *testing.T) {
	srv := newTestServer(t)
	specJSON, _ := json.Marshal(modelOnlySpec())
	whole := partLines(t, srv.URL, `{"spec":`+string(specJSON)+`}`)
	if len(whole) != 4 {
		t.Fatalf("streamed %d cells, want 4", len(whole))
	}
	for idx, line := range whole {
		var it eval.BatchItem
		json.Unmarshal([]byte(line), &it)
		if idx < 0 || idx >= 4 || it.Point == nil || math.IsNaN(it.Point.Model) || it.Point.Model <= 0 {
			t.Errorf("streamed line without a model value: %s", line)
		}
	}
	ranged := partLines(t, srv.URL, `{"spec":`+string(specJSON)+`,"start":0,"end":4}`)
	if !maps.Equal(whole, ranged) {
		t.Errorf("the whole-grid stream differs from [0, 4):\n%v\n%v", whole, ranged)
	}
}

func TestSweepRejectsBadSpec(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":{"topologies":[]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: status %s", resp.Status)
	}
	resp = postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":{"no_such_field":1}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %s", resp.Status)
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil || payload.Error == "" {
		t.Errorf("error payload missing: %v %+v", err, payload)
	}
}

// TestSweepMidStreamFailure pins the per-item error contract: cells that
// fail after streaming began arrive as their own {"index":N,"error":…}
// lines, and every other cell of the grid is still answered.
func TestSweepMidStreamFailure(t *testing.T) {
	srv := newTestServer(t)
	spec := modelOnlySpec()
	spec.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
	body, _ := json.Marshal(spec)
	resp := postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":`+string(body)+`}`)
	items := decodeItems(t, resp) // status 200: mid-stream failures cannot change it
	if len(items) != 8 {
		t.Fatalf("%d item(s), want all 8 cells", len(items))
	}
	failed := 0
	for idx, it := range items {
		switch {
		case it.Error != "" && it.Point == nil && strings.Contains(it.Error, "size 5"):
			failed++
		case it.Error != "" || it.Point == nil:
			t.Errorf("cell %d: %+v", idx, it)
		}
	}
	if failed != 4 {
		t.Errorf("%d cell(s) failed, want the 4 bft-5 cells", failed)
	}
}

func TestEvalEndpointAndCacheHit(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	sc := `{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":0.01}}`
	resp := postJSON(t, srv.URL+"/v1/eval", sc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var pt eval.Point
	if err := json.NewDecoder(resp.Body).Decode(&pt); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pt.Model) || pt.LoadFlits != 0.01 {
		t.Errorf("bad point: %+v", pt)
	}
	if resp.Header.Get("X-Cache") == "hit" {
		t.Error("first evaluation claims a cache hit")
	}
	resp2 := postJSON(t, srv.URL+"/v1/eval", sc)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Error("second evaluation missed the cache")
	}
	var pt2 eval.Point
	if err := json.NewDecoder(resp2.Body).Decode(&pt2); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pt.Model) != math.Float64bits(pt2.Model) {
		t.Errorf("cached point drifted: %v vs %v", pt.Model, pt2.Model)
	}
}

// TestEvalErrorText pins /v1/eval's answers to cells the model rejects or
// finds saturated, byte for byte, as they were while the models built
// their error labels up front: a model error is the request's 422, a
// saturated point a 200 with a null model.
func TestEvalErrorText(t *testing.T) {
	srv := newTestServer(t)
	for _, c := range []struct {
		body string
		code int
		want string
	}{
		{`{"topology":{"family":"mesh","size":64},"msg_flits":8,"load":{"value":0.01}}`,
			422, `{"error":"analytic: eval: unknown family \"mesh\""}` + "\n"},
		{`{"topology":{"family":"bft","size":5},"msg_flits":8,"load":{"value":0.01}}`,
			422, `{"error":"analytic: analytic: fat-tree size 5 is not a power of four \u003e= 4"}` + "\n"},
		{`{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":-0.5}}`,
			422, `{"error":"analytic: analytic: bad arrival rate -0.0625"}` + "\n"},
		{`{"topology":{"family":"hypercube","size":6},"msg_flits":8,"load":{"value":-0.5}}`,
			422, `{"error":"analytic: analytic: bad arrival rate -0.0625"}` + "\n"},
		{`{"topology":{"family":"bft","size":64},"msg_flits":16,"load":{"value":0.9}}`,
			200, `{"load_flits":0.9,"model":null,"model_saturated":true}` + "\n"},
		{`{"topology":{"family":"torus","size":3,"k":4},"msg_flits":16,"load":{"value":0.9},"variant":{"no_blocking_correction":true}}`,
			200, `{"load_flits":0.9,"model":null,"model_saturated":true}` + "\n"},
	} {
		resp := postJSON(t, srv.URL+"/v1/eval", c.body)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code || string(got) != c.want {
			t.Errorf("%s: %d %q, want %d %q", c.body, resp.StatusCode, got, c.code, c.want)
		}
	}
}

func TestEvalRejectsBadScenarios(t *testing.T) {
	srv := newTestServer(t)
	if resp := postJSON(t, srv.URL+"/v1/eval", `{"policy":"lifo"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy: status %s", resp.Status)
	}
	bad := `{"topology":{"family":"mesh","size":64},"msg_flits":8,"load":{"value":0.01}}`
	if resp := postJSON(t, srv.URL+"/v1/eval", bad); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown family: status %s", resp.Status)
	}
}

// TestCurveEndpoint: /v1/curve takes a grid's spec — the bytes a range
// request carries as its spec — and answers one CurveDesc per curve, in
// grid order, field for field what an in-process Run resolves. A curve
// the model rejects is the request's 422, naming the curve.
func TestCurveEndpoint(t *testing.T) {
	srv := newTestServer(t)
	spec := sweep.Spec{
		Name: "curves",
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyBFT, Sizes: []int{16, 64}},
			{Family: sweep.FamilyTorus, Sizes: []int{2}, K: 4},
		},
		MsgFlits: []int{8, 16},
		Variants: []sweep.Variant{{Name: "paper"}, {Name: "no-blocking", NoBlockingCorrection: true}},
		Loads:    sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+"/v1/curve", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var got []eval.CurveDesc
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(local.Curves) || len(got) != 12 {
		t.Fatalf("/v1/curve answered %d curve(s), the grid has %d, want 12", len(got), len(local.Curves))
	}
	for i, c := range local.Curves {
		if got[i].Model != c.Model || math.Float64bits(got[i].AvgDist) != math.Float64bits(c.AvgDist) ||
			math.Float64bits(got[i].SaturationLoad) != math.Float64bits(c.SaturationLoad) {
			t.Errorf("curve %d: /v1/curve answered %+v, in-process %+v", i, got[i], c)
		}
	}

	bad := modelOnlySpec()
	bad.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
	body, err = json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv.URL+"/v1/curve", string(body))
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(payload.Error, "bft-5/s=4") {
		t.Errorf("a curve the model rejects: status %s, error %q; want 422 naming bft-5/s=4", resp.Status, payload.Error)
	}
}

// TestMethodGate: a route answers the wrong method with 405; a path the
// shard does not serve — the grid stream is /v1/sweep/part, and a shard
// lists no builtins — answers 404.
func TestMethodGate(t *testing.T) {
	srv := newTestServer(t)
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/v1/sweep/part", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/sweep", http.StatusNotFound},
		{http.MethodGet, "/v1/builtins", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s: status %s, want %d", tc.method, tc.path, resp.Status, tc.code)
		}
	}
}

// decodeItems reads a batched NDJSON response into items keyed by index.
func decodeItems(t *testing.T, resp *http.Response) map[int]eval.BatchItem {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	items := make(map[int]eval.BatchItem)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var it eval.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		items[it.Index] = it
	}
	return items
}

// TestBatchEndpoint pins the /v1/batch framing: scenarios in as a JSON
// array, one BatchItem per cell out, indexed by request position, with
// values identical to /v1/eval's.
func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	batch := `[{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":0.01}},
	           {"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":0.02}}]`
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/batch", batch))
	if len(items) != 2 {
		t.Fatalf("batch of 2 answered %d item(s)", len(items))
	}
	for i := 0; i < 2; i++ {
		it, ok := items[i]
		if !ok || it.Point == nil || it.Error != "" {
			t.Fatalf("item %d missing or failed: %+v", i, it)
		}
	}
	// The batched cell equals the per-cell endpoint's answer bit for bit.
	resp := postJSON(t, srv.URL+"/v1/eval", `{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":0.01}}`)
	var single eval.Point
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(items[0].Point.Model) != math.Float64bits(single.Model) {
		t.Errorf("batched cell drifted from /v1/eval: %v vs %v", items[0].Point.Model, single.Model)
	}
}

// TestBatchEndpointEmptyAndSingle pins the degenerate batches: an empty
// array is a valid request with an empty stream, a single-cell batch
// answers exactly one line.
func TestBatchEndpointEmptyAndSingle(t *testing.T) {
	srv := newTestServer(t)
	if items := decodeItems(t, postJSON(t, srv.URL+"/v1/batch", `[]`)); len(items) != 0 {
		t.Errorf("empty batch answered %d item(s)", len(items))
	}
	one := `[{"topology":{"family":"bft","size":16},"msg_flits":4,"load":{"value":0.01}}]`
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/batch", one))
	if len(items) != 1 || items[0].Point == nil {
		t.Fatalf("single-cell batch: %+v", items)
	}
	if resp := postJSON(t, srv.URL+"/v1/batch", `{"not":"an array"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-array batch: status %s", resp.Status)
	}
}

// TestBatchEndpointUnstablePoint pins the NaN/Inf → null rule through
// the batched wire: a cell whose model saturates (+Inf) crosses as null
// plus the saturation marker, never as a bare Inf token.
func TestBatchEndpointUnstablePoint(t *testing.T) {
	srv := newTestServer(t)
	// A fractional load beyond saturation forces model = +Inf.
	batch := `[{"topology":{"family":"bft","size":16},"msg_flits":4,"load":{"frac":true,"value":1.5}}]`
	resp := postJSON(t, srv.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no line: %v", sc.Err())
	}
	line := sc.Text()
	if strings.Contains(line, "Inf") || strings.Contains(line, "NaN") {
		t.Fatalf("non-finite token leaked onto the wire: %s", line)
	}
	var it eval.BatchItem
	if err := json.Unmarshal([]byte(line), &it); err != nil {
		t.Fatal(err)
	}
	if it.Point == nil || !it.Point.ModelSaturated || !math.IsInf(it.Point.Model, 1) {
		t.Errorf("saturated cell not recovered: %s -> %+v", line, it.Point)
	}
}

// TestBatchEndpointPerItemError: one bad scenario inside a batch fails
// as its own indexed item; the rest still answer.
func TestBatchEndpointPerItemError(t *testing.T) {
	srv := newTestServer(t)
	batch := `[{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"value":0.01}},
	           {"topology":{"family":"mesh","size":64},"msg_flits":8,"load":{"value":0.01}}]`
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/batch", batch))
	if it := items[0]; it.Point == nil || it.Error != "" {
		t.Errorf("healthy cell caught the neighbour's failure: %+v", it)
	}
	if it := items[1]; it.Error == "" || it.Point != nil {
		t.Errorf("bad cell did not fail: %+v", it)
	}
}

// TestPartEndpoint pins the grid-slice protocol: the shard re-expands
// the spec locally and streams exactly [start, end) with grid indices,
// values identical to a full in-process run.
func TestPartEndpoint(t *testing.T) {
	srv := newTestServer(t)
	spec := modelOnlySpec()
	local, err := sweep.NewRunner().Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(spec)
	body := `{"spec":` + string(specJSON) + `,"start":1,"end":3}`
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/sweep/part", body))
	if len(items) != 2 {
		t.Fatalf("part [1,3) answered %d item(s)", len(items))
	}
	for idx := 1; idx < 3; idx++ {
		it, ok := items[idx]
		if !ok || it.Point == nil {
			t.Fatalf("grid index %d missing: %+v", idx, items)
		}
		if math.Float64bits(it.Point.Model) != math.Float64bits(local.Rows[idx].Model) {
			t.Errorf("index %d drifted from in-process: %v vs %v", idx, it.Point.Model, local.Rows[idx].Model)
		}
	}
}

// TestPartEndpointRejectsBadRanges: ranges outside the expanded grid are
// a client error, not a truncated stream.
func TestPartEndpointRejectsBadRanges(t *testing.T) {
	srv := newTestServer(t)
	specJSON, _ := json.Marshal(modelOnlySpec())
	for _, r := range []string{`"start":-1,"end":2`, `"start":2,"end":1`, `"start":0,"end":99`} {
		body := `{"spec":` + string(specJSON) + `,` + r + `}`
		if resp := postJSON(t, srv.URL+"/v1/sweep/part", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("range %s: status %s", r, resp.Status)
		}
	}
	if resp := postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":{"topologies":[]},"start":0,"end":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: status %s", resp.Status)
	}
}

// TestMetricsEndpoint pins the Prometheus text surface: per-endpoint
// request/error counters, latency histograms, and the batch counters.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	postJSON(t, srv.URL+"/v1/eval", `{"topology":{"family":"bft","size":16},"msg_flits":4,"load":{"value":0.01}}`)
	postJSON(t, srv.URL+"/v1/eval", `{"policy":"lifo"}`) // a 400
	postJSON(t, srv.URL+"/v1/batch", `[]`)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		`sweep_http_requests_total{path="/v1/eval"} 2`,
		`sweep_http_errors_total{path="/v1/eval"} 1`,
		`sweep_http_request_duration_seconds_bucket{path="/v1/eval",le="+Inf"} 2`,
		`sweep_http_request_duration_seconds_count{path="/v1/eval"} 2`,
		`sweep_batch_requests_total 1`,
		`sweep_batch_cells_total 0`,
		`# TYPE sweep_http_request_duration_seconds histogram`,
		// The simulator's per-cycle work counters (process-wide).
		`# TYPE sim_group_visits_total counter`,
		`# TYPE sim_grants_total counter`,
		`# TYPE sim_drain_steps_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// rangeCounter is a cache that counts full-index walks.
type rangeCounter struct {
	*sweep.Cache
	ranges atomic.Int64
}

func (c *rangeCounter) Range(fn func(key string, cell sweep.Cell) bool) {
	c.ranges.Add(1)
	c.Cache.Range(fn)
}

// TestHealthzVersionInfo pins /healthz: liveness, the Go toolchain and
// module version, and the cache stats beside them — read from the
// cache's counters, so the liveness probe stays O(1): it never walks the
// cache.
func TestHealthzVersionInfo(t *testing.T) {
	cache := &rangeCounter{Cache: sweep.NewCache()}
	srv := newTestServer(t, WithCache(cache))
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %+v", health)
	}
	gv, _ := health["go_version"].(string)
	if !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %q", gv)
	}
	mv, _ := health["module_version"].(string)
	if mv == "" {
		t.Errorf("module_version missing: %+v", health)
	}
	if _, ok := health["cache_cells"]; !ok {
		t.Errorf("cache stats lost from healthz: %+v", health)
	}
	if n := cache.ranges.Load(); n != 0 {
		t.Errorf("/healthz walked the cache %d time(s), want 0", n)
	}
}

// TestSweepClientDisconnectLeaksNoGoroutines pins the acceptance
// criterion: a client that walks away mid-stream leaves the server with
// no goroutines behind — the request context cancels the sweep, the
// worker pool unwinds, in-flight simulations abort in their cycle loops.
func TestSweepClientDisconnectLeaksNoGoroutines(t *testing.T) {
	srv := newTestServer(t)
	// Big enough that the sweep is mid-flight when the client leaves.
	spec := sweep.Spec{
		Name:       "slow",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{8, 16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.2, 0.4, 0.6, 0.8}},
		WithSim:    true,
		Budget:     sweep.Budget{Warmup: 10000, Measure: 150000, Seed: 5},
	}
	body, _ := json.Marshal(spec)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep/part", strings.NewReader(`{"spec":`+string(body)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Take the first streamed row, then vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first row: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(15 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server leaked goroutines after client disconnect: %d before, %d now",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsConcurrentScrapes races /metrics scrapes against live
// traffic: every scrape must come back 200 and parse as Prometheus
// text while the counters, histograms and gauges underneath it move.
// Run under -race (make test), this pins the render path's safety.
func TestMetricsConcurrentScrapes(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	const workers, iters = 4, 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(srv.URL+"/v1/eval", "application/json",
					strings.NewReader(`{"topology":{"family":"bft","size":16},"msg_flits":4,"load":{"value":0.01}}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape returned %s", resp.Status)
				}
				if _, err := obs.ParseMetrics(resp.Body); err != nil {
					t.Errorf("scrape did not parse: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// panicBackend panics on scenarios of one message length and answers the
// rest like the analytic model.
type panicBackend struct {
	eval.Evaluator
	flits int
}

func (b panicBackend) Evaluate(ctx context.Context, sc eval.Scenario) (eval.Point, error) {
	if sc.MsgFlits == b.flits {
		panic("boom")
	}
	return b.Evaluator.Evaluate(ctx, sc)
}

// TestBackendPanicCannotKillShard: a backend that panics on a cell costs
// that cell — an error in the shape each endpoint reports cell failures
// in — never the shard: every other cell of the request is answered, and
// the server takes the next request.
func TestBackendPanicCannotKillShard(t *testing.T) {
	s := New()
	s.runner.Backends = []eval.Evaluator{panicBackend{Evaluator: eval.NewAnalyticBackend(), flits: 13}}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	scen := func(flits int) string {
		return fmt.Sprintf(`{"topology":{"family":"bft","size":64},"msg_flits":%d,"load":{"value":0.01}}`, flits)
	}
	spec := `{"topologies":[{"family":"bft","sizes":[64]}],"msg_flits":[8,13,16],"loads":{"flits":[0.01]}}`
	// itemsFailOnly asserts a three-cell BatchItem stream whose middle
	// cell alone failed with the panic.
	itemsFailOnly := func(t *testing.T, resp *http.Response) {
		items := decodeItems(t, resp)
		if len(items) != 3 {
			t.Fatalf("%d item(s), want 3: %+v", len(items), items)
		}
		for idx, it := range items {
			if idx == 1 {
				if it.Point != nil || !strings.Contains(it.Error, "backend panic") {
					t.Errorf("the panicking cell answered %+v, want a backend-panic error", it)
				}
			} else if it.Point == nil || it.Error != "" {
				t.Errorf("cell %d caught its neighbour's panic: %+v", idx, it)
			}
		}
	}
	for _, tc := range []struct {
		name, path, body string
		check            func(*testing.T, *http.Response)
	}{
		{"eval", "/v1/eval", scen(13), func(t *testing.T, resp *http.Response) {
			var payload map[string]string
			json.NewDecoder(resp.Body).Decode(&payload)
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(payload["error"], "backend panic") {
				t.Errorf("status %s, payload %v; want 422 with a backend-panic error", resp.Status, payload)
			}
		}},
		{"batch", "/v1/batch", "[" + scen(8) + "," + scen(13) + "," + scen(16) + "]", itemsFailOnly},
		{"part", "/v1/sweep/part", `{"spec":` + spec + `,"start":0,"end":3}`, itemsFailOnly},
		{"sweep", "/v1/sweep/part", `{"spec":` + spec + `}`, itemsFailOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, postJSON(t, srv.URL+tc.path, tc.body))
			if resp := postJSON(t, srv.URL+"/v1/eval", scen(8)); resp.StatusCode != http.StatusOK {
				t.Errorf("the shard answered the next request with %s", resp.Status)
			}
		})
	}
}
