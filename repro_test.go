package repro_test

import (
	"context"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"repro"
)

// The facade must be sufficient for the quick-start workflow in README.md.
func TestFacadeQuickstart(t *testing.T) {
	model, err := repro.NewFatTreeModel(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := model.Latency(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Total <= 16 {
		t.Errorf("latency %v implausible", lat.Total)
	}
	sat, err := model.SaturationLoad()
	if err != nil {
		t.Fatal(err)
	}
	if sat <= 0 || sat > 1 {
		t.Errorf("saturation %v implausible", sat)
	}

	ft, err := repro.NewFatTree(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Simulate(context.Background(), repro.SimConfig{
		Net:           ft,
		MsgFlits:      16,
		Seed:          1,
		WarmupCycles:  1000,
		MeasureCycles: 8000,
	}.FlitLoad(0.5*sat))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("half of saturation should be stable")
	}
	if math.Abs(res.LatencyMean-lat.Total)/lat.Total > 0.5 {
		t.Errorf("sim %v wildly off model %v", res.LatencyMean, lat.Total)
	}

	// The redesigned options surface: early stopping and replicas.
	fast, err := repro.Simulate(context.Background(), repro.SimConfig{
		Net:           ft,
		MsgFlits:      16,
		Seed:          1,
		WarmupCycles:  1000,
		MeasureCycles: 8000,
	}.FlitLoad(0.5*sat),
		repro.WithSimTermination(repro.DefaultSimTermination),
		repro.WithSimReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Replicas != 2 {
		t.Errorf("Replicas = %d, want 2", fast.Replicas)
	}
	if math.Abs(fast.LatencyMean-res.LatencyMean)/res.LatencyMean > 0.2 {
		t.Errorf("pooled estimate %v far from fixed-window %v", fast.LatencyMean, res.LatencyMean)
	}
}

func TestFacadeVariantsAndOtherNetworks(t *testing.T) {
	v, err := repro.NewFatTreeModelVariant(64, 16, repro.ModelOptions{NoBlockingCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := repro.NewFatTreeModel(64, 16)
	lv, err := v.Latency(0.002)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := base.Latency(0.002)
	if lv.Total <= lb.Total {
		t.Errorf("ablated model %v should exceed base %v", lv.Total, lb.Total)
	}

	hm, err := repro.NewHypercubeModel(6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hm.Latency(0.001); err != nil {
		t.Fatal(err)
	}
	tm, err := repro.NewTorusModel(4, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Latency(0.0005); err != nil {
		t.Fatal(err)
	}
	hc, err := repro.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if hc.NumProcessors() != 16 {
		t.Error("hypercube size")
	}
}

func TestFacadeSweep(t *testing.T) {
	spec, err := repro.SweepBuiltin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to a model-only grid so the facade test stays fast.
	spec.Topologies[0].Sizes = []int{16}
	spec.MsgFlits = []int{8}
	spec.WithSim = false
	res, err := repro.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || len(res.Curves) != 1 {
		t.Errorf("rows=%d curves=%d", len(res.Rows), len(res.Curves))
	}

	if _, err := repro.ParseSweepSpec([]byte(`{"bogus": true}`)); err == nil {
		t.Error("ParseSweepSpec accepted an unknown field")
	}

	cache := repro.NewSweepCache()
	runner := &repro.SweepRunner{Cache: cache}
	if _, err := runner.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	res2, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != len(res2.Rows) {
		t.Errorf("rerun hits=%d, want %d", res2.CacheHits, len(res2.Rows))
	}

	// Streaming delivers every cell and closes the channel.
	streamed := 0
	for pr := range repro.SweepStream(context.Background(), spec) {
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		streamed++
	}
	if streamed != len(res.Rows) {
		t.Errorf("streamed %d cells, want %d", streamed, len(res.Rows))
	}
}

// TestFacadeSweepService exercises the serving surface end to end: a
// server on a loopback port with a persistent store, a RemoteBackend
// evaluating a grid against it, and a restarted store serving the same
// grid from disk.
func TestFacadeSweepService(t *testing.T) {
	dir := t.TempDir()
	st, err := repro.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- repro.ListenAndServe(ctx, addr, time.Second, repro.ServeWithCache(st))
	}()

	rb, err := repro.NewRemoteBackend([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := repro.SweepBuiltin("figure3")
	if err != nil {
		t.Fatal(err)
	}
	spec.Topologies[0].Sizes = []int{16}
	spec.MsgFlits = []int{8}
	spec.WithSim = false
	runner := repro.SweepRunner{Backends: []repro.Evaluator{rb}}
	var res *repro.SweepResult
	// The server needs a moment to bind; the backend's retry/backoff
	// absorbs it.
	res, err = runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	local, err := repro.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if math.Abs(res.Rows[i].Model-local.Rows[i].Model) > 1e-9 {
			t.Errorf("row %d drifted across the wire: %v vs %v",
				i, res.Rows[i].Model, local.Rows[i].Model)
		}
	}

	// Two workers dial in parallel; a dial that loses the race to a freed
	// connection parks a never-used connection in the client's idle pool,
	// which the server may not treat as idle for 5 s — longer than the
	// grace below. Dropping the client's idle connections first keeps the
	// shutdown about in-flight requests.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The store reopens with every cell intact.
	re, err := repro.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != len(res.Rows) {
		t.Errorf("store recovered %d cells, want %d", re.Recovered(), len(res.Rows))
	}
	var _ repro.SweepCacheStore = re
}

// TestFacadeEvaluator exercises the Evaluator backend surface directly:
// both backends answer the same scenario and their points merge.
func TestFacadeEvaluator(t *testing.T) {
	ab := repro.NewAnalyticBackend()
	sb := repro.NewSimBackend(ab)
	scenario := repro.Scenario{
		Topology: repro.SweepTopology{Family: "bft", Size: 16},
		MsgFlits: 8,
		WithSim:  true,
	}
	scenario.Load.Frac = true
	scenario.Load.Value = 0.4
	scenario.Budget.Warmup = 500
	scenario.Budget.Measure = 4000
	scenario.Budget.Seed = 7

	pt := repro.Point{}
	first := true
	for _, be := range []repro.Evaluator{ab, sb} {
		p, err := be.Evaluate(context.Background(), scenario)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if first {
			pt, first = p, false
		} else {
			pt = pt.Merge(p)
		}
	}
	if math.IsNaN(pt.Model) || math.IsNaN(pt.Sim) {
		t.Fatalf("merged point incomplete: %+v", pt)
	}
	if math.Abs(pt.Sim-pt.Model)/pt.Model > 0.5 {
		t.Errorf("backends disagree wildly: model=%v sim=%v", pt.Model, pt.Sim)
	}
}

func TestFacadePlan(t *testing.T) {
	ctx := context.Background()
	spec, err := repro.PlanBuiltin("bft-capacity-small")
	if err != nil {
		t.Fatal(err)
	}
	spec.SkipCertify = true // keep the facade smoke fast
	res, err := repro.Plan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best() == nil {
		t.Fatal("empty frontier")
	}
	if res.Stats.AnalyticEvals() == 0 {
		t.Error("no evaluations recorded")
	}

	var done bool
	for u := range repro.PlanStream(ctx, spec) {
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if u.Phase == "done" {
			done = true
			if len(u.Result.Frontier) != len(res.Frontier) {
				t.Errorf("streamed frontier size %d, want %d", len(u.Result.Frontier), len(res.Frontier))
			}
		}
	}
	if !done {
		t.Error("stream ended without a done update")
	}

	if _, err := repro.ParsePlanSpec([]byte(`{"space":{},"objektive":"max-load"}`)); err == nil {
		t.Error("misspelled plan spec accepted")
	}
}
