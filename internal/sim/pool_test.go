package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// faultyNet is a working network with one routing fault injected.
type faultyNet struct {
	topology.Network
	// selfLoop routes every head back to the channel it just crossed,
	// which its own worm still holds: nothing ever advances (deadlock).
	selfLoop bool
	// misdeliver relabels every ejection channel with the wrong
	// processor, tripping grant's delivery assertion (panic).
	misdeliver bool
}

func (n *faultyNet) NextGroup(cur topology.ChannelID, dst int) topology.GroupID {
	if n.selfLoop {
		return n.GroupOf(cur)
	}
	return n.Network.NextGroup(cur, dst)
}

func (n *faultyNet) EjectsTo(ch topology.ChannelID) int {
	p := n.Network.EjectsTo(ch)
	if n.misdeliver && p >= 0 {
		return (p + 1) % n.NumProcessors()
	}
	return p
}

// Tables rebuilds the tables through the overridden methods; the embedded
// network's would route around the fault.
func (n *faultyNet) Tables() *topology.Tables { return topology.BuildTables(n) }

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

// freshResults runs every case on its own throwaway engine.
func freshResults(t *testing.T, cases []simCase) []*Result {
	t.Helper()
	want := make([]*Result, len(cases))
	for i, tc := range cases {
		res, err := Run(context.Background(), tc.cfg, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want[i] = res
	}
	return want
}

// TestPoolReuseBitIdentical is the pin of reset-and-reuse: one pool runs
// the whole matrix back to back — networks, message lengths, policies,
// options and workloads changing under the same engines — in two
// different orders, and every Result must equal a fresh Run's bit for
// bit. A cancelled run, a deadlocked one and a panicked one are thrown in
// between; their engines must not come back.
func TestPoolReuseBitIdentical(t *testing.T) {
	ctx := context.Background()
	cases := reuseMatrix(t)
	want := freshResults(t, cases)

	var p Pool
	check := func(i int) {
		t.Helper()
		got, err := p.Run(ctx, cases[i].cfg, cases[i].opts...)
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
		mustMatch(t, "pooled "+cases[i].name, got, want[i])
	}
	for i := range cases {
		check(i)
	}
	if n := len(p.free); n != 3 {
		t.Errorf("pool holds %d engines after a serial pass with one 3-replica run, want 3", n)
	}

	// A run cancelled mid-flight: its engine is dropped, and the next run
	// is unaffected.
	parked := len(p.free)
	cctx, cancel := context.WithCancel(ctx)
	endless := cases[0].cfg
	endless.MeasureCycles = 1 << 40
	endless.Recorder = func(int, int, float64) { cancel() }
	if _, err := p.Run(cctx, endless); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if len(p.free) != parked-1 {
		t.Errorf("pool holds %d engines after a cancelled run, want %d (the engine dropped)", len(p.free), parked-1)
	}
	check(1)

	// A deadlocked run.
	parked = len(p.free)
	stuck := cases[0].cfg
	stuck.Net = &faultyNet{Network: stuck.Net, selfLoop: true}
	// The drain limit outlasts the watchdog, so the run ends in
	// ErrDeadlock rather than at its hard end.
	stuck.DrainLimit = 2 * progressTimeout
	if _, err := p.Run(ctx, stuck); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlocked run: err = %v, want ErrDeadlock", err)
	}
	if len(p.free) != parked-1 {
		t.Errorf("pool holds %d engines after a deadlocked run, want %d", len(p.free), parked-1)
	}
	check(3)

	// A panicking run.
	parked = len(p.free)
	lost := cases[0].cfg
	lost.Net = &faultyNet{Network: lost.Net, misdeliver: true}
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("misdelivering network did not panic")
			}
		}()
		p.Run(ctx, lost)
	}()
	if len(p.free) != parked-1 {
		t.Errorf("pool holds %d engines after a panicked run, want %d", len(p.free), parked-1)
	}
	// A replica's panic surfaces as the run's error, not a crash.
	if _, err := p.Run(ctx, lost, WithReplicas(2)); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panicking replicas: err = %v, want a replica-panicked error", err)
	}

	for i := len(cases) - 1; i >= 0; i-- {
		check(i)
	}
}

// TestReplicasAreCapped: replicas whose engines together would simulate
// more than topology.MaxProcessors processors are refused before any
// engine is built, so a replica count alone cannot exhaust memory; the
// cap is inclusive.
func TestReplicasAreCapped(t *testing.T) {
	ft, err := topology.NewFatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	var p Pool
	for _, replicas := range []int{topology.MaxProcessors/16 + 1, 1_000_000_000} {
		_, err := p.Run(context.Background(), lightConfig(ft, 8, 0.01, 1), WithReplicas(replicas))
		if err == nil || !strings.Contains(err.Error(), "limit is 65536 processors") {
			t.Errorf("%d replicas of bft-16: err = %v, want the processor limit", replicas, err)
		}
	}
	if len(p.free) != 0 {
		t.Errorf("a refused run left %d engine(s) in the pool", len(p.free))
	}
}

// TestPoolConcurrent runs one pool from four goroutines, each walking the
// matrix from a different offset, so engines migrate between goroutines
// and shapes; run under -race.
func TestPoolConcurrent(t *testing.T) {
	cases := reuseMatrix(t)
	want := freshResults(t, cases)
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/4) % len(cases)
				got, err := p.Run(context.Background(), cases[i].cfg, cases[i].opts...)
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

// TestPoolPinsNothing: a parked engine holds no reference to the caller's
// closures, trace, sources, pattern or network (tables included), and a
// Result never aliases engine memory — neither scribbling on a returned
// Result nor rerunning the engine changes the other.
func TestPoolPinsNothing(t *testing.T) {
	ctx := context.Background()
	cfg := lightConfig(topology.MustFatTree(64), 16, 0.3, 1234)
	tr, _ := recordTrace(t, cfg)
	want, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var p Pool
	hooked := cfg
	hooked.Recorder = func(int, int, float64) {}
	hooked.HopWaitObserver = func(topology.ChannelID, int64) {}
	hooked.Workload = &workload.Spec{Pattern: workload.PatternHotspot, Hot: []int{3}, HotFrac: 0.3}
	replay := cfg
	replay.Trace = tr
	for _, c := range []Config{hooked, replay} {
		if _, err := p.Run(ctx, c); err != nil {
			t.Fatal(err)
		}
		e := p.free[len(p.free)-1]
		if e.cfg.Recorder != nil || e.cfg.HopWaitObserver != nil || e.cfg.Trace != nil ||
			e.cfg.Workload != nil || e.cfg.Net != nil || e.net != nil ||
			e.sources != nil || e.pat != nil {
			t.Errorf("parked engine still references its last run: cfg %+v sources %v pat %v", e.cfg, e.sources, e.pat)
		}
		if e.tab.GroupOf != nil || e.tab.EjectsTo != nil || e.tab.GroupOff != nil || e.tab.Members != nil {
			t.Error("parked engine still holds the network's tables")
		}
		for i, d := range e.destSrc[:cap(e.destSrc)] {
			if d != nil {
				t.Fatalf("parked engine still holds trace source %d", i)
			}
		}
	}

	first, err := p.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ch := range first.ChannelBusy {
		first.ChannelBusy[ch] = -1
	}
	first.Name = "scribbled"
	second, err := p.Run(ctx, cfg)
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
