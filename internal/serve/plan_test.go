package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/sweep"
)

// testPlanSpec is a small full-pipeline plan: four candidates, sim
// certification on a tiny budget.
func testPlanSpec() plan.Spec {
	return plan.Spec{
		Name: "serve-test",
		Space: plan.Space{
			Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
			MsgFlits:   []int{8, 16},
		},
		Objective:   plan.ObjectiveMaxLoad,
		Constraints: plan.Constraints{MaxLatency: 40},
		Search:      plan.Search{OperatingFrac: 0.5},
		Budget:      eval.Budget{Warmup: 500, Measure: 3000, Seed: 1},
	}
}

// streamPlan posts the spec to url and collects the update stream.
func streamPlan(t *testing.T, url string, spec plan.Spec, onUpdate func(plan.Update)) *plan.Result {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, url+"/v1/plan", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var result *plan.Result
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var u plan.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		if u.Err != nil {
			t.Fatalf("in-band plan error: %v", u.Err)
		}
		if onUpdate != nil {
			onUpdate(u)
		}
		if u.Phase == plan.PhaseDone {
			result = u.Result
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if result == nil {
		t.Fatal("stream ended without a done update")
	}
	return result
}

// frontierJSON renders a frontier for equality comparison.
func frontierJSON(t *testing.T, frontier []plan.Candidate) string {
	t.Helper()
	data, err := json.Marshal(frontier)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPlanEndpointMatchesInProcess pins the local serving path: the
// /v1/plan stream of a default server reproduces the in-process
// planner's frontier exactly and carries the phase protocol.
func TestPlanEndpointMatchesInProcess(t *testing.T) {
	spec := testPlanSpec()
	local, err := plan.NewLocal(nil).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	phases := map[string]int{}
	res := streamPlan(t, srv.URL, spec, func(u plan.Update) { phases[u.Phase]++ })
	if got, want := frontierJSON(t, res.Frontier), frontierJSON(t, local.Frontier); got != want {
		t.Errorf("served frontier differs from in-process:\nserved: %s\nlocal:  %s", got, want)
	}
	if phases[plan.PhaseRefine] == 0 || phases[plan.PhaseFrontier] != len(local.Frontier) || phases[plan.PhaseDone] != 1 {
		t.Errorf("phase protocol: %+v", phases)
	}
	if res.Stats.SimEvals != len(local.Frontier) {
		t.Errorf("served stats: %+v", res.Stats)
	}
	for _, c := range res.Frontier {
		if !c.Certified {
			t.Errorf("frontier candidate %s not certified", c.Key())
		}
	}
}

// TestPlanFrontEndFleetMatchesInProcess is the distributed acceptance
// pin: POST /v1/plan on a front-end whose planner shards across a
// 2-shard sweepd fleet produces a frontier identical to the in-process
// run — including when one shard is killed mid-search.
func TestPlanFrontEndFleetMatchesInProcess(t *testing.T) {
	spec := testPlanSpec()
	local, err := plan.NewLocal(nil).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := frontierJSON(t, local.Frontier)

	// Healthy fleet. The front-end gets only WithSweeper: the server
	// must detect the dispatcher is a full plan engine and route
	// /v1/plan over the fleet by itself.
	shardA := newTestServer(t)
	shardB := newTestServer(t)
	d, err := dispatch.New([]string{shardA.URL, shardB.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := newTestServer(t, WithSweeper(d))
	res := streamPlan(t, front.URL, spec, nil)
	if got := frontierJSON(t, res.Frontier); got != want {
		t.Errorf("fleet frontier differs from in-process:\nfleet: %s\nlocal: %s", got, want)
	}

	// Fresh fleet, one shard killed mid-search: the dispatcher steals
	// its ranges and the probe client rotates away; the frontier must
	// not change.
	shardC := newTestServer(t)
	shardD := newTestServer(t)
	d2, err := dispatch.New([]string{shardC.URL, shardD.URL})
	if err != nil {
		t.Fatal(err)
	}
	front2 := newTestServer(t, WithSweeper(d2))
	killed := false
	res2 := streamPlan(t, front2.URL, spec, func(u plan.Update) {
		if !killed {
			killed = true
			shardD.CloseClientConnections()
			shardD.Close()
		}
	})
	if !killed {
		t.Fatal("no update arrived before the search finished")
	}
	if got := frontierJSON(t, res2.Frontier); got != want {
		t.Errorf("frontier changed after mid-search shard kill:\nfleet: %s\nlocal: %s", got, want)
	}
}

// TestPlanRejectsBadSpec pins the 400 path and the field-naming error.
func TestPlanRejectsBadSpec(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/plan", `{
		"space": {"topologies": [{"family": "bft", "sizes": [64]}], "msg_flits": [16]},
		"objektive": "max-load"
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	var payload map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(payload["error"], `did you mean "objective"?`) {
		t.Errorf("error = %q, want a field-naming correction", payload["error"])
	}

	resp = postJSON(t, srv.URL+"/v1/plan", `{"space":{},"objective":"max-load"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty space: status %s, want 400", resp.Status)
	}
}

// TestHealthzVersionInfo pins the build/version satellite: /healthz
// reports the Go toolchain and module version alongside cache stats.
func TestHealthzVersionInfo(t *testing.T) {
	srv := newTestServer(t, WithCache(sweep.NewCache()))
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
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
}
