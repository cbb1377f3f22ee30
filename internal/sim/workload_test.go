package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// resultString runs cfg and renders the Result for exact comparison.
// NaN != NaN under ==/DeepEqual, so bit-identity checks compare the
// printed form, which spells NaN literally.
func resultString(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v", *res)
}

// mustEngine builds the event engine directly for white-box tests.
func mustEngine(t *testing.T, cfg Config) *engine {
	t.Helper()
	e, err := newEngine(cfg, Termination{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The default workload — nil or zero Spec — must be bit-identical to a
// pre-workload run: same RNG stream consumption, same arrivals, same
// Result. This pins the compatibility contract of the workload
// subsystem.
func TestDefaultWorkloadBitIdentical(t *testing.T) {
	base := lightConfig(topology.MustFatTree(64), 16, 0.25, 99)
	want := resultString(t, base)

	zero := base
	zero.Workload = &workload.Spec{}
	if got := resultString(t, zero); got != want {
		t.Errorf("zero workload spec diverged from plain run:\n got %s\nwant %s", got, want)
	}

	named := base
	named.Workload = &workload.Spec{Name: "steady"}
	if got := resultString(t, named); got != want {
		t.Error("named default workload diverged from plain run")
	}
}

// Recording must not perturb the run: a recorded run's Result is
// bit-identical to an unrecorded one.
func TestRecordingDoesNotPerturb(t *testing.T) {
	for _, wl := range []*workload.Spec{
		nil,
		{Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
	} {
		base := lightConfig(topology.MustFatTree(64), 16, 0.3, 7)
		base.Workload = wl
		want := resultString(t, base)

		recorded := base
		events := 0
		recorded.Recorder = func(src, dst int, cycle float64) { events++ }
		if got := resultString(t, recorded); got != want {
			t.Errorf("workload %v: recording perturbed the run:\n got %s\nwant %s",
				wl.Label(), got, want)
		}
		if events == 0 {
			t.Errorf("workload %v: recorder saw no arrivals", wl.Label())
		}
	}
}

// recordTrace runs cfg with a recorder attached and returns the trace.
func recordTrace(t *testing.T, cfg Config) (*workload.Trace, *Result) {
	t.Helper()
	tr := &workload.Trace{Header: workload.TraceHeader{
		Version:    workload.TraceVersion,
		Family:     "fattree",
		Size:       cfg.Net.NumProcessors(),
		MsgFlits:   cfg.MsgFlits,
		Lambda0:    cfg.Lambda0,
		Warmup:     cfg.WarmupCycles,
		Measure:    cfg.MeasureCycles,
		DrainLimit: cfg.DrainLimit,
		Seed:       cfg.Seed,
		Policy:     cfg.Policy.String(),
		Workload:   cfg.Workload.Canonical(),
	}}
	cfg.Recorder = func(src, dst int, cycle float64) {
		tr.Events = append(tr.Events, workload.TraceEvent{
			Src: src, Dst: dst, Cycle: cycle, MsgFlits: cfg.MsgFlits,
		})
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.SortEvents(tr.Events)
	return tr, res
}

// The determinism contract of record/replay: replaying a recorded trace
// with the recording run's seed and windows reproduces the Result
// bit-identically — for the default workload and for a bursty one.
func TestRecordReplayBitIdentical(t *testing.T) {
	for _, wl := range []*workload.Spec{
		nil,
		{Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200},
		{Pattern: workload.PatternHotspot, Hot: []int{3}, HotFrac: 0.3},
	} {
		cfg := lightConfig(topology.MustFatTree(64), 16, 0.3, 1234)
		cfg.Workload = wl
		tr, recorded := recordTrace(t, cfg)
		if len(tr.Events) == 0 {
			t.Fatalf("workload %v: empty trace", wl.Label())
		}

		replay := cfg
		replay.Workload = nil
		replay.Trace = tr
		got := resultString(t, replay)
		want := fmt.Sprintf("%+v", *recorded)
		if got != want {
			t.Errorf("workload %v: replay diverged from recording:\n got %s\nwant %s",
				wl.Label(), got, want)
		}
	}
}

// An MMPP on-off workload at the same mean load concentrates arrivals
// into bursts, so at a load near saturation it must congest harder than
// steady Poisson: strictly higher mean latency (directional pin; the
// saturation-shift acceptance criterion of the workload subsystem).
func TestBurstyCongestsHarderThanSteady(t *testing.T) {
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.1, 42)
	steady, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bursty := cfg
	bursty.Workload = &workload.Spec{Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200}
	burst, err := Run(context.Background(), bursty)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Saturated {
		t.Fatalf("steady run saturated at the probe load; lower the load")
	}
	if !burst.Saturated && burst.LatencyMean <= steady.LatencyMean {
		t.Errorf("bursty run (L=%v, sat=%v) not worse than steady (L=%v)",
			burst.LatencyMean, burst.Saturated, steady.LatencyMean)
	}
}

// Workload-bearing configs are validated: bad enum values, trace
// mismatches and replica conflicts are rejected before the run.
func TestWorkloadConfigValidation(t *testing.T) {
	ft := topology.MustFatTree(16)
	base := lightConfig(ft, 8, 0.1, 1)

	bad := base
	bad.Workload = &workload.Spec{Process: "gamm", Shape: 2}
	if _, err := Run(context.Background(), bad); err == nil {
		t.Error("misspelled process accepted")
	}

	tr := &workload.Trace{Header: workload.TraceHeader{
		Version: workload.TraceVersion, Family: "fattree", Size: 64, MsgFlits: 8,
	}}
	mismatch := base
	mismatch.Trace = tr
	if _, err := Run(context.Background(), mismatch); err == nil {
		t.Error("trace size mismatch accepted")
	}

	both := base
	both.Trace = &workload.Trace{Header: workload.TraceHeader{
		Version: workload.TraceVersion, Family: "fattree", Size: 16, MsgFlits: 8,
	}}
	both.Workload = &workload.Spec{Process: workload.ProcessGamma, Shape: 2}
	if _, err := Run(context.Background(), both); err == nil {
		t.Error("trace + non-default workload accepted")
	}

	replicated := base
	replicated.Recorder = func(src, dst int, cycle float64) {}
	if _, err := Run(context.Background(), replicated, WithReplicas(2)); err == nil {
		t.Error("recorder with replicas > 1 accepted")
	}
	replayRep := base
	replayRep.Trace = &workload.Trace{Header: workload.TraceHeader{
		Version: workload.TraceVersion, Family: "fattree", Size: 16, MsgFlits: 8,
	}}
	if _, err := Run(context.Background(), replayRep, WithReplicas(2)); err == nil {
		t.Error("trace replay with replicas > 1 accepted")
	}
}

// A locality workload runs end to end and biases traffic toward nearby
// destinations (lower average distance than uniform).
func TestLocalityWorkloadRuns(t *testing.T) {
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.2, 5)
	cfg.Workload = &workload.Spec{Pattern: workload.PatternLocality, Decay: 0.3}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedCompleted == 0 {
		t.Fatal("no traffic delivered")
	}
	uni, err := Run(context.Background(), lightConfig(topology.MustFatTree(64), 16, 0.2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyMean >= uni.LatencyMean {
		t.Errorf("locality latency %v not below uniform %v", res.LatencyMean, uni.LatencyMean)
	}
}

// A ramp rate mix preserves the aggregate load: delivered throughput at
// a stable load matches the uniform mix within noise.
func TestRampMixPreservesThroughput(t *testing.T) {
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.08, 11)
	uni, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ramp := cfg
	ramp.Workload = &workload.Spec{Mix: workload.MixRamp, RampRatio: 3}
	res, err := Run(context.Background(), ramp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || uni.Saturated {
		t.Fatal("probe load saturated; lower it")
	}
	rel := (res.ThroughputFlits - uni.ThroughputFlits) / uni.ThroughputFlits
	if rel < -0.05 || rel > 0.05 {
		t.Errorf("ramp throughput %v vs uniform %v (rel %v)", res.ThroughputFlits, uni.ThroughputFlits, rel)
	}
}
