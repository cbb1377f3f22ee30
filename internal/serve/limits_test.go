package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/topology"
)

// TestOversizedRequestCannotKillShard: a request is sized before
// anything is built from it. A few hundred bytes asking for more than
// sweep.MaxCells cells, or for a simulated network above
// topology.MaxProcessors — alone or as replicas, each of which builds an
// engine as large as the network — get a 4xx naming the limit at once on
// every endpoint that evaluates or describes curves, and the shard keeps
// serving. (Without the checks the first allocates the load axis, the
// second the network's tables and the third the replicas' engines, and
// an out-of-memory exit is not a panic a handler can recover. The sizes
// here are a small multiple of the limits rather than the billions a
// hostile body would carry, so a regression fails this test instead of
// taking the machine's memory with it.)
func TestOversizedRequestCannotKillShard(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))

	cells := fmt.Sprintf("more than %d cells", sweep.MaxCells)
	procs := fmt.Sprintf("limit is %d processors", topology.MaxProcessors)
	const (
		manyCells = `{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],
			"loads":{"points":2097152,"max_frac":0.9}}`
		hugeNet = `{"topologies":[{"family":"bft","sizes":[262144]}],"msg_flits":[8],
			"loads":{"fracs":[0.5]},"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1}}`
		hugeCell = `{"topology":{"family":"bft","size":262144},"msg_flits":8,"load":{"value":0.01},
			"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1}}`
		hugeCube = `{"topology":{"family":"hypercube","size":18},"msg_flits":8,"load":{"value":0.01},
			"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1}}`
		hugeCubes = `{"topologies":[{"family":"hypercube","sizes":[18]}],"msg_flits":[8],
			"loads":{"fracs":[0.5]},"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1}}`
		// Twice the limit in eight replicas of a network that fits alone.
		manyReplicas = `{"topologies":[{"family":"bft","sizes":[16384]}],"msg_flits":[8],
			"loads":{"fracs":[0.5]},"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1,"replicas":8}}`
		replicaCell = `{"topology":{"family":"bft","size":16384},"msg_flits":8,"load":{"value":0.01},
			"with_sim":true,"budget":{"warmup":10,"measure":100,"seed":1,"replicas":8}}`
	)
	client := &http.Client{Timeout: time.Second}
	for _, tc := range []struct {
		name, path, body, want string
	}{
		// The whole-grid form of the part stream: a spec and no range.
		{"sweep cells", "/v1/sweep/part", `{"spec":` + manyCells + `}`, cells},
		{"sweep network", "/v1/sweep/part", `{"spec":` + hugeNet + `}`, procs},
		{"part cells", "/v1/sweep/part", `{"spec":` + manyCells + `,"start":0,"end":1}`, cells},
		{"part network", "/v1/sweep/part", `{"spec":` + hugeNet + `,"start":0,"end":1}`, procs},
		{"part replicas", "/v1/sweep/part", `{"spec":` + manyReplicas + `,"start":0,"end":1}`, procs},
		{"sweep replicas", "/v1/sweep/part", `{"spec":` + manyReplicas + `}`, procs},
		{"part hypercube", "/v1/sweep/part", `{"spec":` + hugeCubes + `,"start":0,"end":1}`, procs},
		{"eval network", "/v1/eval", hugeCell, procs},
		{"eval replicas", "/v1/eval", replicaCell, procs},
		{"eval hypercube", "/v1/eval", hugeCube, procs},
		{"curve cells", "/v1/curve", manyCells, cells},
		{"curve network", "/v1/curve", hugeNet, procs},
		// A scenario body is refused as the spec it is not, never decoded
		// into some other grid.
		{"curve scenario", "/v1/curve", `{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"frac":true,"value":0.5}}`,
			`unknown field "topology"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("no answer within a second: %v", err)
			}
			defer resp.Body.Close()
			var payload struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
				t.Fatalf("status %s, body is no error payload: %v", resp.Status, err)
			}
			// A request that sizes a grid is refused whole (400); /v1/eval
			// refuses its one cell as that cell's verdict (422).
			code := http.StatusBadRequest
			if tc.path == "/v1/eval" {
				code = http.StatusUnprocessableEntity
			}
			if resp.StatusCode != code || !strings.Contains(payload.Error, tc.want) {
				t.Errorf("status %s, error %q; want %d naming %q", resp.Status, payload.Error, code, tc.want)
			}
			health, err := client.Get(srv.URL + "/healthz")
			if err != nil {
				t.Fatalf("shard gone after the request: %v", err)
			}
			health.Body.Close()
			if health.StatusCode != http.StatusOK {
				t.Errorf("/healthz answers %s after the request", health.Status)
			}
		})
	}
}

// TestBodyBound: a request body is read to 1 MiB (maxBody) and no
// further. A body of exactly maxBody bytes is answered, one byte more is
// a 400 naming the bound, on the pooled /v1/eval read and on the copy
// the other routes keep.
func TestBodyBound(t *testing.T) {
	srv := newTestServer(t)
	const (
		cell = `{"topology":{"family":"bft","size":64},"msg_flits":8,"load":{"frac":true,"value":0.5}}`
		spec = `{"topologies":[{"family":"bft","sizes":[64]}],"msg_flits":[8],"loads":{"fracs":[0.5]}}`
	)
	for _, tc := range []struct {
		path, body string
		pad        int
		code       int
	}{
		{"/v1/eval", cell, maxBody - len(cell), http.StatusOK},
		{"/v1/eval", cell, maxBody + 1 - len(cell), http.StatusBadRequest},
		{"/v1/curve", spec, maxBody - len(spec), http.StatusOK},
		{"/v1/curve", spec, maxBody + 1 - len(spec), http.StatusBadRequest},
		{"/v1/sweep/part", `{"spec":` + spec + `}`, maxBody + 1 - len(spec) - 9, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(strings.Repeat(" ", tc.pad)+tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s with a %d-byte body: %s %s, want %d", tc.path, tc.pad+len(tc.body), resp.Status, msg, tc.code)
		} else if tc.code != http.StatusOK && !strings.Contains(string(msg), "request body too large") {
			t.Errorf("%s with a %d-byte body: %s does not name the bound", tc.path, tc.pad+len(tc.body), msg)
		}
	}
}
