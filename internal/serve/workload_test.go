package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/sweep"
)

// TestMalformedWorkloadCannotKillShard is the negative-rate regression:
// bad workload parameters and negative loads must come back as error
// responses — never a panic that takes the shard down. After each bad
// request the server must still answer a good one.
func TestMalformedWorkloadCannotKillShard(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))

	badSweeps := []string{
		// Misspelled process enum: strict decoding with a suggestion.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],
		  "workloads":[{"process":"gamm","shape":2}],
		  "loads":{"flits":[0.01]}}`,
		// Negative load: would have been a negative Poisson rate.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],
		  "loads":{"flits":[-0.01]}}`,
		// Unknown workload field.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],
		  "workloads":[{"proces":"mmpp"}],
		  "loads":{"flits":[0.01]}}`,
		// Stray parameter: shape without gamma/weibull.
		`{"topologies":[{"family":"bft","sizes":[16]}],"msg_flits":[8],
		  "workloads":[{"shape":2}],
		  "loads":{"flits":[0.01]}}`,
	}
	for i, body := range badSweeps {
		resp := postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":`+body+`}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sweep %d: status %s, want 400", i, resp.Status)
		}
		var payload struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil || payload.Error == "" {
			t.Errorf("bad sweep %d: error payload missing: %v %+v", i, err, payload)
		}
	}

	// A negative load smuggled straight into /v1/eval (no sweep-spec
	// validation in front) must error, not panic the handler.
	resp := postJSON(t, srv.URL+"/v1/eval",
		`{"topology":{"family":"bft","size":16},"msg_flits":8,"load":{"value":-5},"with_sim":true,
		  "budget":{"warmup":100,"measure":500,"seed":1}}`)
	if resp.StatusCode == http.StatusOK {
		t.Error("negative-load eval succeeded; want an error response")
	}

	// The shard survived all of it.
	good := postJSON(t, srv.URL+"/v1/eval",
		`{"topology":{"family":"bft","size":16},"msg_flits":8,"load":{"value":0.01}}`)
	if good.StatusCode != http.StatusOK {
		t.Fatalf("shard unhealthy after bad requests: %s", good.Status)
	}
}

// TestWorkloadSweepStreamsModelNA pins the wire contract of workload
// cells: a bursty grid streamed over /v1/sweep/part marks every cell of
// its non-default workload model_na, and the workload itself, which
// travels in the spec, is the one the grid's expansion carries at that
// index.
func TestWorkloadSweepStreamsModelNA(t *testing.T) {
	srv := newTestServer(t)
	spec := `{
		"name":"bursty-wire",
		"topologies":[{"family":"bft","sizes":[16]}],
		"msg_flits":[8],
		"workloads":[{"name":"steady"},{"name":"burst","process":"mmpp","on_frac":0.25,"burst_cycles":100}],
		"loads":{"flits":[0.01]}}`
	parsed, err := sweep.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	scens, err := sweep.Expand(parsed)
	if err != nil {
		t.Fatal(err)
	}
	items := decodeItems(t, postJSON(t, srv.URL+"/v1/sweep/part", `{"spec":`+spec+`}`))
	if len(items) != 2 || len(scens) != 2 {
		t.Fatalf("streamed %d cells of a %d-cell grid, want 2", len(items), len(scens))
	}
	var sawDefault, sawBurst bool
	for idx, it := range items {
		if it.Point == nil {
			t.Fatalf("cell %d failed: %s", idx, it.Error)
		}
		if w := scens[idx].Workload; w.IsDefault() {
			sawDefault = true
			if it.Point.ModelNA {
				t.Errorf("steady cell marked model_na: %+v", it.Point)
			}
		} else {
			sawBurst = true
			if !it.Point.ModelNA {
				t.Errorf("bursty cell not marked model_na: %+v", it.Point)
			}
			if got := w.Canonical(); got != "mmpp(0.25,100)/uniform/uniform" {
				t.Errorf("bursty cell's workload is %q", got)
			}
		}
	}
	if !sawDefault || !sawBurst {
		t.Errorf("missing cells: default=%v burst=%v", sawDefault, sawBurst)
	}
}
