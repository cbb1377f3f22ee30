package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// faultyNet is a working network with one routing fault injected.
type faultyNet struct {
	topology.Network
	// selfLoop routes every head back to the group of the channel it just
	// crossed, which its own worm still holds: nothing ever advances
	// (deadlock).
	selfLoop bool
	// misdeliver routes every head's last hop to the next processor's
	// ejection channel, tripping grant's delivery assertion (panic).
	misdeliver bool
}

func (n *faultyNet) NextGroup(cur topology.ChannelID, dst int) topology.GroupID {
	tab := n.Tables()
	if n.selfLoop {
		return cur - topology.ChannelID(tab.Lead[cur])
	}
	g := n.Network.NextGroup(cur, dst)
	if n.misdeliver && g == tab.Ejection(dst) {
		return tab.Ejection((dst + 1) % n.NumProcessors())
	}
	return g
}

// reuseMatrix is the run matrix of the reuse tests: the pinned
// families plus every option and workload kind that adds engine state.
func reuseMatrix(t *testing.T) []simCase {
	cases := pinnedFamilies()
	bft64 := topology.MustFatTree(64)
	base := Config{
		Net: bft64, MsgFlits: 16, Seed: 42,
		WarmupCycles: 1000, MeasureCycles: 4000,
	}.FlitLoad(0.03)

	hist := base
	hist.LatencyHistogram = true
	long := base
	long.MeasureCycles = 60000
	mmpp := base
	mmpp.Workload = &workload.Spec{Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200}
	gamma := base
	gamma.Net, gamma.MsgFlits = topology.MustFatTree(256), 8
	gamma.Workload = &workload.Spec{Process: workload.ProcessGamma, Shape: 0.5, Mix: workload.MixRamp, RampRatio: 3}
	recordable := lightConfig(bft64, 16, 0.3, 1234)
	tr, _ := recordTrace(t, recordable)
	replay := recordable
	replay.Trace = tr

	return append(cases,
		simCase{name: "with-histogram", cfg: hist},
		simCase{name: "with-termination", cfg: long, opts: []Option{WithTermination(DefaultTermination)}},
		simCase{name: "with-replicas-3", cfg: base, opts: []Option{WithReplicas(3)}},
		simCase{name: "mmpp", cfg: mmpp},
		simCase{name: "gamma-ramp-bft256", cfg: gamma},
		simCase{name: "trace-replay", cfg: replay},
	)
}

// freshRun is Run in a process that has parked nothing: with the parked
// engines set aside, Run builds every engine it needs with the internal
// constructor (newEngine), and what it parks is dropped afterwards.
func freshRun(ctx context.Context, cfg Config, opts ...Option) (*Result, error) {
	parked.mu.Lock()
	kept := parked.free
	parked.free = nil
	parked.mu.Unlock()
	defer func() {
		parked.mu.Lock()
		parked.free = kept
		parked.mu.Unlock()
	}()
	return Run(ctx, cfg, opts...)
}

// parkedEngines is how many engines the process has parked.
func parkedEngines() int {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	return len(parked.free)
}

// lastParked is the engine the latest run parked.
func lastParked() *engine {
	parked.mu.Lock()
	defer parked.mu.Unlock()
	return parked.free[len(parked.free)-1]
}

// freshResults runs every case on engines of its own.
func freshResults(t *testing.T, cases []simCase) []*Result {
	t.Helper()
	want := make([]*Result, len(cases))
	for i, tc := range cases {
		res, err := freshRun(context.Background(), tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[i] = res
	}
	return want
}

// TestPoolReuseBitIdentical is the pin of reset-and-reuse: Run takes the
// whole matrix back to back on the process's parked engines — networks,
// message lengths, policies, options and workloads changing under the
// same engines — in two different orders, and every Result must equal
// one from engines the internal constructor built, bit for bit. A
// cancelled run, a deadlocked one and a panicked one are thrown in
// between; their engines must not come back.
func TestPoolReuseBitIdentical(t *testing.T) {
	ctx := context.Background()
	cases := reuseMatrix(t)
	want := freshResults(t, cases)

	check := func(i int) {
		t.Helper()
		got, err := Run(ctx, cases[i].cfg, cases[i].opts...)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		mustMatch(t, "parked "+cases[i].name, got, want[i])
	}
	before := parkedEngines()
	for i := range cases {
		check(i)
	}
	// A serial run parks the engines it took; the 3-replica run builds
	// what it cannot take.
	if n, want := parkedEngines(), max(before, 3); n != want {
		t.Errorf("%d engines parked after a serial pass with one 3-replica run, want %d", n, want)
	}

	// A run cancelled mid-flight: its engine is dropped, and the next run
	// is unaffected.
	parked := parkedEngines()
	cctx, cancel := context.WithCancel(ctx)
	endless := cases[0].cfg
	endless.MeasureCycles = 1 << 40
	endless.Recorder = func(int, int, float64) { cancel() }
	if _, err := Run(cctx, endless); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if n := parkedEngines(); n != parked-1 {
		t.Errorf("%d engines parked after a cancelled run, want %d (the engine dropped)", n, parked-1)
	}
	check(1)

	// A deadlocked run.
	parked = parkedEngines()
	stuck := cases[0].cfg
	stuck.Net = &faultyNet{Network: stuck.Net, selfLoop: true}
	// The drain limit outlasts the watchdog, so the run ends in
	// ErrDeadlock rather than at its hard end.
	stuck.DrainLimit = 2 * progressTimeout
	if _, err := Run(ctx, stuck); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked run: err = %v, want ErrDeadlock", err)
	}
	if n := parkedEngines(); n != parked-1 {
		t.Errorf("%d engines parked after a deadlocked run, want %d", n, parked-1)
	}
	check(3)

	// A panicking run.
	parked = parkedEngines()
	lost := cases[0].cfg
	lost.Net = &faultyNet{Network: lost.Net, misdeliver: true}
	func() {
		defer func() {
			if v := recover(); !strings.Contains(fmt.Sprint(v), "delivered to") {
				t.Errorf("misdelivering network: panic %v, want the delivery assertion", v)
			}
		}()
		Run(ctx, lost)
	}()
	if n := parkedEngines(); n != parked-1 {
		t.Errorf("%d engines parked after a panicked run, want %d", n, parked-1)
	}
	// A replica's panic surfaces as the run's error, not a crash, and
	// parks neither replica's engine.
	parked = parkedEngines()
	if _, err := Run(ctx, lost, WithReplicas(2)); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking replicas: err = %v, want a replica-panicked error", err)
	}
	if n := parkedEngines(); n != max(parked-2, 0) {
		t.Errorf("%d engines parked after panicked replicas, want %d", n, max(parked-2, 0))
	}

	for i := len(cases) - 1; i >= 0; i-- {
		check(i)
	}
}

// TestReplicasAreCapped: replicas whose engines together would simulate
// more than topology.MaxProcessors processors are refused before any
// engine is taken or built, so a replica count alone cannot exhaust
// memory; the cap is inclusive.
func TestReplicasAreCapped(t *testing.T) {
	ft, err := topology.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	before := parkedEngines()
	for _, replicas := range []int{topology.MaxProcessors/16 + 1, 1_000_000_000} {
		_, err := Run(context.Background(), lightConfig(ft, 8, 0.01, 1), WithReplicas(replicas))
		if err == nil || !strings.Contains(err.Error(), "limit is 65536 processors") {
			t.Errorf("%d replicas of bft-16: err = %v, want the processor limit", replicas, err)
		}
	}
	if n := parkedEngines(); n != before {
		t.Errorf("a refused run moved the parked engines from %d to %d", before, n)
	}
}

// TestPoolConcurrent runs Run from four goroutines, each walking the
// matrix from a different offset, so parked engines migrate between
// goroutines and shapes; run under -race.
func TestPoolConcurrent(t *testing.T) {
	cases := reuseMatrix(t)
	want := freshResults(t, cases)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				got, err := Run(context.Background(), cases[i].cfg, cases[i].opts...)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].name, err)
					return
				}
				mustMatch(t, "concurrent "+cases[i].name, got, want[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestParkedEnginesAreBounded pins what the process retains: after N
// goroutines have run at once, at most N engines are parked, however many
// runs each made, and a later serial run builds none.
func TestParkedEnginesAreBounded(t *testing.T) {
	parked.mu.Lock()
	parked.free = nil // start from a process that has parked nothing
	parked.mu.Unlock()

	const goroutines, runs = 3, 4
	cfg := lightConfig(topology.MustFatTree(16), 8, 0.2, 7)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for i := 0; i < runs; i++ {
				if _, err := Run(context.Background(), cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	start.Done()
	wg.Wait()
	n := parkedEngines()
	if n < 1 || n > goroutines {
		t.Fatalf("%d engines parked after %d goroutines ran at once, want 1 to %d", n, goroutines, goroutines)
	}
	built := simEnginesBuilt.Load()
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if d := simEnginesBuilt.Load() - built; d != 0 || parkedEngines() != n {
		t.Errorf("a serial run after them built %d engines and left %d parked, want 0 and %d", d, parkedEngines(), n)
	}
}

// TestPoolPinsNothing: a parked engine holds no reference to the caller's
// closures, trace, sources, pattern or network (tables included), and a
// Result never aliases engine memory — neither scribbling on a returned
// Result nor rerunning the engine changes the other.
func TestPoolPinsNothing(t *testing.T) {
	ctx := context.Background()
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.3, 1234)
	tr, _ := recordTrace(t, cfg)
	want, err := freshRun(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	hooked := cfg
	hooked.Recorder = func(int, int, float64) {}
	hooked.HopWaitObserver = func(topology.ChannelID, int64) {}
	hooked.Workload = &workload.Spec{Pattern: workload.PatternHotspot, Hot: []int{3}, HotFrac: 0.3}
	replay := cfg
	replay.Trace = tr
	for _, c := range []Config{hooked, replay} {
		if _, err := Run(ctx, c); err != nil {
			t.Fatal(err)
		}
		e := lastParked()
		if e.cfg.Recorder != nil || e.cfg.HopWaitObserver != nil || e.cfg.Trace != nil ||
			e.cfg.Workload != nil || e.cfg.Net != nil || e.net != nil ||
			e.sources != nil || e.pat != nil {
			t.Errorf("parked engine still references its last run: cfg %+v sources %v pat %v", e.cfg, e.sources, e.pat)
		}
		if e.tab.Kind != nil || e.tab.Lead != nil {
			t.Error("parked engine still holds the network's tables")
		}
		for i, d := range e.destSrc[:cap(e.destSrc)] {
			if d != nil {
				t.Fatalf("parked engine still holds trace source %d", i)
			}
		}
	}

	first, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ch := range first.ChannelBusy {
		first.ChannelBusy[ch] = -1
	}
	first.Name = "scribbled"
	second, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, "rerun after a mutated Result", second, want)
	for ch, b := range first.ChannelBusy {
		if b != -1 {
			t.Fatalf("rerun wrote through the earlier Result: ChannelBusy[%d] = %v", ch, b)
		}
	}
}

// BenchmarkColdRun times a run on an engine the internal constructor
// builds, on the paper's 1024-processor configuration at a moderate load:
// what Run costs a process that has parked nothing. The root package's
// BenchmarkSimulatorCycles times Run itself, on a parked engine.
func BenchmarkColdRun(b *testing.B) {
	cfg := Config{
		Net:           topology.MustFatTree(1024),
		MsgFlits:      16,
		Seed:          9,
		WarmupCycles:  1000,
		MeasureCycles: 4000,
	}.FlitLoad(0.02)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := freshRun(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles/op")
	}
}

// TestLinkedQueues pins the intrusive FIFO: order within a queue,
// independence of queues sharing one next column, and reuse of an element
// after it has been popped.
func TestLinkedQueues(t *testing.T) {
	const nQ, nEl = 3, 999
	var q linkedQueues
	q.recycle(nQ)
	next := make([]int32, nEl)
	for i := int32(0); i < nQ; i++ {
		if !q.empty(i) {
			t.Fatalf("new queue %d not empty", i)
		}
	}
	// Element id waits in queue id%nQ.
	for id := int32(0); id < nEl; id++ {
		q.push(id%nQ, id, next)
	}
	for id := int32(0); id < nEl; id++ {
		if q.empty(id % nQ) {
			t.Fatalf("queue %d drained early", id%nQ)
		}
		if got := q.pop(id%nQ, next); got != id {
			t.Fatalf("queue %d: pop = %d, want %d (FIFO order)", id%nQ, got, id)
		}
	}
	for i := int32(0); i < nQ; i++ {
		if !q.empty(i) {
			t.Fatalf("queue %d should be empty", i)
		}
	}
	// Interleaved push/pop on one queue, recycling popped elements the
	// way the engine recycles worm slots: 7 in, 5 out per round.
	free := make([]int32, 0, nEl)
	for id := int32(nEl - 1); id >= 0; id-- {
		free = append(free, id)
	}
	var want []int32 // model queue
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			id := free[len(free)-1]
			free = free[:len(free)-1]
			q.push(1, id, next)
			want = append(want, id)
		}
		for i := 0; i < 5; i++ {
			if got := q.pop(1, next); got != want[0] {
				t.Fatalf("round %d: pop = %d, want %d", round, got, want[0])
			}
			free = append(free, want[0])
			want = want[1:]
		}
	}
	for len(want) > 0 {
		if got := q.pop(1, next); got != want[0] {
			t.Fatalf("draining: pop = %d, want %d", got, want[0])
		}
		want = want[1:]
	}
	if !q.empty(1) || !q.empty(0) || !q.empty(2) {
		t.Fatal("queues not empty after draining")
	}
	// A recycled set is empty again, whatever it held.
	q.push(2, 5, next)
	q.recycle(nQ + 2)
	for i := int32(0); i < nQ+2; i++ {
		if !q.empty(i) {
			t.Fatalf("queue %d not empty after recycle", i)
		}
	}
}
