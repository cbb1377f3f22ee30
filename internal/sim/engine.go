package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Process-wide engine counters, rendered on /metrics by the serve
// layer. Engines accumulate locally and flush once per run, so the
// cycle loop never touches an atomic.
var (
	simEventsPopped  = obs.NewCounter("sim_events_popped_total")
	simIdleSkipped   = obs.NewCounter("sim_idle_cycles_skipped_total")
	simEarlySaved    = obs.NewCounter("sim_earlystop_cycles_saved_total")
	simMergeMicros   = obs.NewCounter("sim_replica_merge_micros_total")
	simRunsCompleted = obs.NewCounter("sim_runs_total")
	simEnginesBuilt  = obs.NewCounter("sim_engines_built_total")
	simEnginesReused = obs.NewCounter("sim_engines_reused_total")
	simGroupVisits   = obs.NewCounter("sim_group_visits_total")
	simGrants        = obs.NewCounter("sim_grants_total")
	simDrainSteps    = obs.NewCounter("sim_drain_steps_total")
)

type wormState uint8

const (
	stateRouting wormState = iota
	stateDraining
	stateDone
)

// wormSoA holds the in-flight messages in struct-of-arrays layout: the hot
// phases (drain, shift, grant) each touch only a couple of fields per worm,
// so parallel arrays keep those accesses dense in cache instead of striding
// over full worm records. Slots are pooled through the engine's freeList
// and path buffers are reused across occupants, so the steady state
// allocates nothing (pinned by TestSteadyStateAllocs).
//
// The rigid-worm representation itself is unchanged: only the acquired
// channel path and three counters are stored; flit positions are implied
// (one flit per held channel while routing; see the package comment).
type wormSoA struct {
	src, dst   []int32
	arrival    []float64
	grantCycle []int64
	path       [][]topology.ChannelID
	tailIdx    []int32 // channels before this index have been released
	injected   []int32 // flits that have entered the network
	consumed   []int32 // flits delivered to the destination PE
	state      []wormState
	tracked    []bool
	enqueuedAt []int64 // cycle the worm entered its current arbitration queue
	next       []int32 // successor in that queue (see linkedQueues)

	// Path slab: a new slot's path buffer is the next stride channels of
	// the current chunk (spare), capacity-limited to them, so a shortest
	// path never reallocates and a longer one falls back to append's
	// growth instead of overrunning its neighbour.
	chunks [][]topology.ChannelID
	spare  []topology.ChannelID
	used   int // chunks handed out so far this run
	stride int
}

// pathChunkWorms is the number of path buffers carved from one chunk.
const pathChunkWorms = 512

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// recycle empties the store for a run whose paths are at most stride
// channels long, keeping every column's capacity (at least n slots) and
// the path chunks.
func (s *wormSoA) recycle(n, stride int) {
	s.src, s.dst = resized(s.src, n)[:0], resized(s.dst, n)[:0]
	s.arrival = resized(s.arrival, n)[:0]
	s.grantCycle = resized(s.grantCycle, n)[:0]
	s.path = resized(s.path, n)[:0]
	s.tailIdx = resized(s.tailIdx, n)[:0]
	s.injected = resized(s.injected, n)[:0]
	s.consumed = resized(s.consumed, n)[:0]
	s.state = resized(s.state, n)[:0]
	s.tracked = resized(s.tracked, n)[:0]
	s.enqueuedAt = resized(s.enqueuedAt, n)[:0]
	s.next = resized(s.next, n)[:0]
	s.spare, s.used, s.stride = nil, 0, stride
}

// carve returns an empty path buffer of capacity stride from the slab.
func (s *wormSoA) carve() []topology.ChannelID {
	if len(s.spare) < s.stride {
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		if len(s.chunks[s.used]) < s.stride {
			s.chunks[s.used] = make([]topology.ChannelID, pathChunkWorms*s.stride)
		}
		s.spare = s.chunks[s.used]
		s.used++
	}
	buf := s.spare[:0:s.stride]
	s.spare = s.spare[s.stride:]
	return buf
}

func (s *wormSoA) grow() int32 {
	s.src = append(s.src, 0)
	s.dst = append(s.dst, 0)
	s.arrival = append(s.arrival, 0)
	s.grantCycle = append(s.grantCycle, 0)
	s.path = append(s.path, s.carve())
	s.tailIdx = append(s.tailIdx, 0)
	s.injected = append(s.injected, 0)
	s.consumed = append(s.consumed, 0)
	s.state = append(s.state, stateRouting)
	s.tracked = append(s.tracked, false)
	s.enqueuedAt = append(s.enqueuedAt, 0)
	s.next = append(s.next, 0)
	return int32(len(s.src) - 1)
}

func (s *wormSoA) reset(id int32) {
	s.src[id], s.dst[id] = 0, 0
	s.arrival[id] = 0
	s.grantCycle[id] = 0
	s.path[id] = s.path[id][:0]
	s.tailIdx[id], s.injected[id], s.consumed[id] = 0, 0, 0
	s.state[id] = stateRouting
	s.tracked[id] = false
	s.enqueuedAt[id] = 0
}

func (s *wormSoA) len() int { return len(s.src) }

// linkedQueues is a set of intrusive FIFOs over elements that live in
// someone else's slab: queue q runs head[q] → next[head[q]] → … → tail[q],
// -1 terminated, where next is one column shared by all queues. That
// sharing rests on one invariant: an element waits in at most one queue
// at a time. It holds for worms (a head requests its next hop only after
// the previous grant popped it) and for queued arrivals (each belongs to
// one source). Pushing an element that is still queued corrupts both
// queues.
type linkedQueues struct {
	head, tail []int32
}

// recycle makes n empty queues, keeping capacity.
func (q *linkedQueues) recycle(n int) {
	q.head, q.tail = resized(q.head, n), resized(q.tail, n)
	for i := range q.head {
		q.head[i], q.tail[i] = -1, -1
	}
}

func (q *linkedQueues) empty(i int32) bool { return q.head[i] < 0 }

func (q *linkedQueues) push(i, id int32, next []int32) {
	next[id] = -1
	if t := q.tail[i]; t < 0 {
		q.head[i] = id
	} else {
		next[t] = id
	}
	q.tail[i] = id
}

func (q *linkedQueues) pop(i int32, next []int32) int32 {
	id := q.head[i]
	q.head[i] = next[id]
	if q.head[i] < 0 {
		q.tail[i] = -1
	}
	return id
}

// arrivalSlab stores the messages queued at their sources — arrival time
// and destination — in one slab shared by all sources; each source's FIFO
// is threaded through next (engine.srcQ), as is the list of free slots.
type arrivalSlab struct {
	at   []float64
	dst  []int32
	next []int32
	free int32
}

func (s *arrivalSlab) recycle() {
	s.at, s.dst, s.next, s.free = s.at[:0], s.dst[:0], s.next[:0], -1
}

func (s *arrivalSlab) put(at float64, dst int32) int32 {
	if slot := s.free; slot >= 0 {
		s.free = s.next[slot]
		s.at[slot], s.dst[slot] = at, dst
		return slot
	}
	s.at = append(s.at, at)
	s.dst = append(s.dst, dst)
	s.next = append(s.next, 0)
	return int32(len(s.at) - 1)
}

func (s *arrivalSlab) release(slot int32) {
	s.next[slot] = s.free
	s.free = slot
}

// arrEvent is one entry of the arrival calendar: processor p's next
// Poisson arrival becomes eligible for injection at the given cycle.
type arrEvent struct {
	cycle int64
	p     int32
}

func arrBefore(a, b arrEvent) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.p < b.p)
}

// routeReq is a head that crossed a channel last cycle and asks for its
// next hop this cycle. The group is worked out at the grant, while the
// channel's routing record is hot, so the request phase only shuffles and
// enqueues.
type routeReq struct {
	id int32
	g  topology.GroupID
}

// drainer is a worm whose head has reached its destination. While flits
// are still entering at the source its drain cycles move nothing but the
// injected and consumed counters, so it sleeps through them: wake is the
// first cycle on which its tail releases a channel, and the counters (and
// the delivered-flit count) are settled then, or in finish if the run ends
// first.
type drainer struct {
	id   int32
	wake int64
}

type engine struct {
	cfg    Config
	net    topology.Network
	nProc  int
	sFlits int32

	// tab is the network's flat structure (shared, read-only) and free the
	// one mutable column on it: the free channels of each arbitration
	// group, at the group's first channel.
	tab  topology.Tables
	free []int32

	soa      wormSoA
	freeList []int32
	active   int

	busy       []bool
	acquiredAt []int64

	// arbQ holds the arbitration FIFOs by channel, threaded through
	// soa.next: a group's one FIFO at its first channel (PairQueue), or one
	// per channel (RandomFixed). pending and inPending name groups the same
	// way.
	arbQ      linkedQueues
	pending   []topology.GroupID
	inPending []bool

	routeNow, routeNext []routeReq
	// draining lists the drainers in the order their heads arrived. Worms
	// that finish in the same cycle arrived in the same cycle, so this one
	// order is also the order BatchMeans sees completions in; it must not
	// be split or re-sorted by wake time.
	draining []drainer
	releases []topology.ChannelID

	sources []traffic.Source
	srcSlab workload.SourceSlab
	arrRNG  []traffic.RNG // per-source arrival streams (the sources point here)
	srcRNG  []traffic.RNG // per-source destination streams
	// arr and srcQ queue each source's accepted arrivals until the
	// injection channel takes them.
	arr  arrivalSlab
	srcQ linkedQueues
	// A destination is decided when its arrival is taken in, and queues in
	// arr beside the arrival time: read from a replayed trace (destSrc
	// non-empty) or drawn from pat, the resolved destination pattern (nil
	// under trace replay), on srcRNG[p]. Each source's stream is drawn in
	// its messages' order either way.
	pat        traffic.Pattern
	destSrc    []traffic.DestSource
	waitingInj []bool
	rng        traffic.RNG

	// Event-driven advancement: arrHeap is a binary min-heap over each
	// source's next arrival-eligibility cycle, and injReady lists the
	// processors that must create a worm at the next arrivals phase
	// (pending messages, injection channel no longer contested by an
	// earlier worm of the same source). Together they replace the dense
	// per-cycle scan over all processors — only sources with actual events
	// are touched — and when no worm is in flight the cycle loop jumps
	// straight to the heap minimum.
	arrHeap    []arrEvent
	injReady   []int32
	inInjReady []bool

	term         Termination
	measStart    int64
	measEnd      int64 // shrinks when the termination rule fires
	hardEnd      int64
	earlyStopped bool

	// tally holds what the measurement window accumulates; finish and
	// mergeReplicas derive a Result's measured fields from it.
	tally
	queueFirstHalf     float64
	queueSecondHalf    float64
	qChecks            []float64 // cumulative queueIntegral at check strides (termination mode)
	trackedArrived     int
	trackedCompleted   int
	trackedOutstanding int
	totalCompleted     int
	totalQueued        int
	lastProgress       int64

	// Observability accumulators (flushed to the obs counters in finish).
	obsPopped     int64
	obsIdleSkip   int64
	obsVisits     int64 // calls into grantGroup
	obsGrants     int64
	obsDrainSteps int64 // draining worms stepped

	noBusy      bool // the Result carries no ChannelBusy (WithoutChannelBusy)
	reused      bool // this run is on a parked engine (takeEngine)
	debugChecks bool // same-package tests enable per-cycle invariants
}

func newEngine(cfg Config, term Termination) (*engine, error) {
	e := new(engine)
	if err := e.reset(cfg); err != nil {
		return nil, err
	}
	e.term = term
	return e, nil
}

// reset prepares e to run cfg from cycle 0, exactly as a new engine
// would, on whatever storage e already owns. It rebuilds the value from
// scratch and carries over only backing arrays — emptied, zeroed or
// refilled here — so a field this function does not mention is zero, not
// stale: forgetting one costs an allocation, never a wrong result. The
// previous run may have been on another network, message length or
// policy; columns are re-sliced to the new shape and grow only when it
// is larger. On error e is half-built and must be dropped.
func (e *engine) reset(cfg Config) error {
	net := cfg.Net
	nProc := net.NumProcessors()
	nCh := net.NumChannels()
	tab := net.Tables()
	old := *e
	*e = engine{
		cfg:        cfg,
		net:        net,
		nProc:      nProc,
		sFlits:     int32(cfg.MsgFlits),
		tab:        *tab,
		free:       resized(old.free, nCh),
		soa:        old.soa,
		freeList:   old.freeList[:0],
		busy:       resized(old.busy, nCh),
		acquiredAt: resized(old.acquiredAt, nCh),
		arbQ:       old.arbQ,
		pending:    old.pending[:0],
		inPending:  resized(old.inPending, nCh),
		routeNow:   old.routeNow[:0],
		routeNext:  old.routeNext[:0],
		draining:   old.draining[:0],
		releases:   old.releases[:0],
		srcSlab:    old.srcSlab,
		arrRNG:     resized(old.arrRNG, nProc),
		srcRNG:     resized(old.srcRNG, nProc),
		arr:        old.arr,
		srcQ:       old.srcQ,
		destSrc:    old.destSrc[:0],
		waitingInj: resized(old.waitingInj, nProc),
		arrHeap:    resized(old.arrHeap, nProc)[:0],
		injReady:   resized(old.injReady, nProc)[:0],
		inInjReady: resized(old.inInjReady, nProc),
		qChecks:    old.qChecks[:0],
		measStart:  int64(cfg.WarmupCycles),
		measEnd:    int64(cfg.WarmupCycles + cfg.MeasureCycles),
		tally: tally{
			lat:        *stats.NewBatchMeans(batchSize),
			busyInMeas: resized(old.busyInMeas, nCh),
		},
	}
	for ch, lead := range tab.Lead {
		e.free[ch-int(lead)]++
	}
	diam := diameter(net)
	e.soa.recycle(nProc, diam)
	e.arbQ.recycle(nCh)
	e.srcQ.recycle(nProc)
	e.arr.recycle()
	if cfg.LatencyHistogram {
		e.latHist = stats.NewHistogram(0, histReach*float64(cfg.MsgFlits+diam), histBins)
	}
	var master traffic.RNG
	master.Seed(cfg.Seed)
	master.SplitInto(&e.rng, streamShuffle)
	for p := range e.srcRNG {
		master.SplitInto(&e.srcRNG[p], streamDest(p))
	}
	if cfg.Trace != nil {
		e.sources = cfg.Trace.Sources()
		e.destSrc = resized(e.destSrc, nProc)
		for p, s := range e.sources {
			e.destSrc[p] = s.(traffic.DestSource)
		}
	} else {
		// SplitInto does not consume the parent stream, so pulling the
		// arrival streams here (after all destination streams) derives
		// the same per-processor generators as the historical interleaved
		// loop — the default workload stays bit-identical.
		srcs, err := cfg.Workload.Sources(&e.srcSlab, nProc, cfg.Lambda0,
			func(p int) *traffic.RNG {
				master.SplitInto(&e.arrRNG[p], streamArrival(p))
				return &e.arrRNG[p]
			})
		if err != nil {
			return err
		}
		e.sources = srcs
		pat := cfg.pattern()
		if !cfg.Workload.IsDefault() && cfg.Workload.Pattern != "" {
			pat, err = cfg.Workload.BuildPattern(nProc, net.PathLen)
			if err != nil {
				return err
			}
		}
		e.pat = pat
	}
	for p := 0; p < nProc; p++ {
		e.scheduleArrival(p)
	}
	return nil
}

// release drops every reference to caller-owned memory — the config's
// closures and trace, the sources and destination pattern built from
// them, the network and its tables — so a parked engine pins nothing but
// its own slabs.
func (e *engine) release() {
	e.cfg = Config{}
	e.net, e.tab = nil, topology.Tables{}
	e.sources, e.pat = nil, nil
	clear(e.destSrc)
}

// scheduleArrival (re)inserts processor p's next arrival into the
// calendar. An arrival at continuous time a becomes eligible at the first
// cycle t with a < t, i.e. floor(a)+1 — the same eligibility the dense
// engine's per-cycle PopBefore(t) scan implements.
func (e *engine) scheduleArrival(p int) {
	if ev, ok := e.nextArrival(p); ok {
		e.heapPush(ev)
	}
}

// nextArrival is processor p's next calendar entry; ok is false for a
// source that never fires again (rate 0).
func (e *engine) nextArrival(p int) (ev arrEvent, ok bool) {
	a := e.sources[p].Peek()
	if math.IsInf(a, 1) {
		return arrEvent{}, false
	}
	return arrEvent{cycle: int64(math.Floor(a)) + 1, p: int32(p)}, true
}

func (e *engine) heapPush(ev arrEvent) {
	h := append(e.arrHeap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !arrBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.arrHeap = h
}

// heapPop removes the calendar's top.
func (e *engine) heapPop() {
	n := len(e.arrHeap) - 1
	last := e.arrHeap[n]
	e.arrHeap = e.arrHeap[:n]
	if n > 0 {
		e.heapReplaceTop(last)
	}
}

// heapReplaceTop puts ev in the top's place and sifts it down. Keys are
// unique (one entry per processor), so the order entries leave the
// calendar in does not depend on how they are arranged inside it.
func (e *engine) heapReplaceTop(ev arrEvent) {
	h := e.arrHeap
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && arrBefore(h[r], h[c]) {
			c = r
		}
		if !arrBefore(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// ctxCheckMask sets how often the cycle loop polls the context: every 4096
// loop iterations (an iteration is one simulated cycle with work in it),
// i.e. a few microseconds of wall clock on the largest paper configuration
// — prompt cancellation at negligible cost.
const ctxCheckMask = 1<<12 - 1

func (e *engine) run(ctx context.Context) (Result, error) {
	e.hardEnd = e.measEnd + int64(e.cfg.drainLimit())
	t := int64(0)
	for iter := int64(0); ; t, iter = t+1, iter+1 {
		if t >= e.measEnd && (e.trackedOutstanding == 0 || t >= e.hardEnd) {
			break
		}
		if iter&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: aborted at cycle %d: %w", t, err)
			}
		}
		if e.active == 0 {
			// Nothing in flight means nothing queued either (a queued
			// message either has a worm contending for injection or
			// becomes one the cycle it is popped), so no phase can do
			// work before the next arrival: jump the clock straight
			// there, or to the end of the window if no arrival precedes
			// it. Skipped cycles contribute nothing to any accumulator —
			// every queue is empty — so results are bit-identical to
			// stepping through them.
			next := e.measEnd
			if len(e.arrHeap) > 0 && e.arrHeap[0].cycle < next {
				next = e.arrHeap[0].cycle
			}
			if next > t {
				e.obsIdleSkip += next - t
				t = next
				e.lastProgress = t
				if t >= e.measEnd {
					break // idle and the window is over: done
				}
			}
		} else if t-e.lastProgress > progressTimeout {
			return Result{}, fmt.Errorf("%w (cycle %d, %d worms active)", ErrDeadlock, t, e.active)
		}
		e.arrivals(t)
		if t >= e.measStart && t < e.measEnd {
			e.queueIntegral += float64(e.totalQueued)
			if !e.term.Enabled() {
				if t-e.measStart < (e.measEnd-e.measStart)/2 {
					e.queueFirstHalf += float64(e.totalQueued)
				} else {
					e.queueSecondHalf += float64(e.totalQueued)
				}
			}
		}
		e.drain(t)
		e.requests(t)
		e.grants(t)
		e.applyReleases()
		e.routeNow, e.routeNext = e.routeNext, e.routeNow[:0]
		if e.debugChecks {
			e.checkInvariants(t)
		}
		if e.term.Enabled() && t >= e.measStart && t < e.measEnd &&
			(t-e.measStart+1)%termCheckEvery == 0 {
			e.qChecks = append(e.qChecks, e.queueIntegral)
			if e.ciConverged() {
				e.measEnd = t + 1
				e.hardEnd = e.measEnd + int64(e.cfg.drainLimit())
				e.earlyStopped = true
			}
		}
	}
	return e.finish(t), nil
}

// ciConverged evaluates the termination rule against the latency batch
// means accumulated so far.
func (e *engine) ciConverged() bool {
	if e.lat.Batches() < termMinBatches {
		return false
	}
	mean := e.lat.Mean()
	if !(mean > 0) {
		return false
	}
	hw := e.lat.HalfWidth(termConfidence)
	return !math.IsNaN(hw) && hw <= e.term.RelHalfWidth*mean
}

// arrivals pulls Poisson arrivals that became eligible before cycle t off
// the calendar and keeps one worm per PE contending for the injection
// channel. Worm creation runs in ascending processor order — the same
// order as the dense scan — because RandomFixed enqueueing draws from the
// shared arbiter stream.
func (e *engine) arrivals(t int64) {
	limit := float64(t)
	for len(e.arrHeap) > 0 && e.arrHeap[0].cycle <= t {
		e.obsPopped++
		p := int(e.arrHeap[0].p)
		for {
			a, ok := e.sources[p].PopBefore(limit)
			if !ok {
				break
			}
			var d int32
			if len(e.destSrc) > 0 {
				d = int32(e.destSrc[p].LastDest())
			} else {
				d = int32(e.pat.Dest(p, e.nProc, &e.srcRNG[p]))
			}
			if rec := e.cfg.Recorder; rec != nil {
				rec(p, int(d), a)
			}
			e.srcQ.push(int32(p), e.arr.put(a, d), e.arr.next)
			e.totalQueued++
			if a >= float64(e.measStart) && a < float64(e.measEnd) {
				e.trackedArrived++
				e.trackedOutstanding++
			}
		}
		// p's next arrival takes p's place at the top and sinks from
		// there: one sift instead of a pop's and a push's.
		if ev, ok := e.nextArrival(p); ok {
			e.heapReplaceTop(ev)
		} else {
			e.heapPop()
		}
		if !e.waitingInj[p] && !e.inInjReady[p] {
			e.inInjReady[p] = true
			e.injReady = append(e.injReady, int32(p))
		}
	}
	if len(e.injReady) > 0 {
		slices.Sort(e.injReady)
		ready := e.injReady
		e.injReady = e.injReady[:0]
		// createWorm never re-appends to injReady (it marks the source
		// waiting before any grant can clear it), so iterating the shared
		// backing array while the live slice is empty is safe.
		for _, p := range ready {
			e.inInjReady[p] = false
			e.createWorm(int(p), t)
		}
	}
}

func (e *engine) createWorm(p int, t int64) {
	slot := e.srcQ.pop(int32(p), e.arr.next)
	a := e.arr.at[slot]
	id := e.alloc()
	e.soa.src[id] = int32(p)
	e.soa.dst[id] = e.arr.dst[slot]
	e.arr.release(slot)
	e.soa.arrival[id] = a
	e.soa.state[id] = stateRouting
	e.soa.tracked[id] = a >= float64(e.measStart) && a < float64(e.measEnd)
	e.enqueue(e.tab.Injection(p), id, t)
	e.waitingInj[p] = true
	e.active++
}

func (e *engine) alloc() int32 {
	if n := len(e.freeList); n > 0 {
		id := e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		e.soa.reset(id)
		return id
	}
	return e.soa.grow()
}

// drain advances consumption: one flit per cycle per worm whose head has
// reached its destination. Only worms with a tail channel to release are
// stepped; the others sleep (see drainer).
func (e *engine) drain(t int64) {
	if len(e.draining) == 0 {
		return
	}
	e.lastProgress = t // every drainer consumes a flit this cycle, asleep or not
	kept := e.draining[:0]
	for _, d := range e.draining {
		if d.wake > t {
			kept = append(kept, d)
			continue
		}
		e.obsDrainSteps++
		id := d.id
		if slept := e.sFlits - e.soa.injected[id]; slept > 0 {
			// First step after sleeping through cycles [t-slept, t).
			e.soa.injected[id] = e.sFlits
			e.soa.consumed[id] += slept
			e.flitsDelivered += e.measuredCycles(t-int64(slept), t)
		}
		e.soa.consumed[id]++
		e.countFlit(t)
		e.releaseTail(id, t)
		if e.soa.consumed[id] >= e.sFlits {
			e.finalize(id, t)
		} else {
			kept = append(kept, d)
		}
	}
	e.draining = kept
}

// measuredCycles counts the cycles of [from, to) inside the measurement
// window. A sleeper's flits are counted here in arrears, against the
// window as it stands now: early stopping only ever moves measEnd to the
// cycle after the current one, so every cycle up to now is judged as it
// was when it ran.
func (e *engine) measuredCycles(from, to int64) int64 {
	return max(0, min(to, e.measEnd)-max(from, e.measStart))
}

// requests enqueues worms whose heads reached a switch last cycle.
// Same-cycle arrivals are shuffled so FCFS ties break uniformly at random
// rather than by processor index.
func (e *engine) requests(t int64) {
	rn := e.routeNow
	for i := len(rn) - 1; i > 0; i-- {
		j := e.rng.Intn(i + 1)
		rn[i], rn[j] = rn[j], rn[i]
	}
	for _, r := range rn {
		e.enqueue(r.g, r.id, t)
	}
}

func (e *engine) enqueue(g topology.GroupID, id int32, t int64) {
	e.soa.enqueuedAt[id] = t
	q := g
	if e.cfg.Policy == RandomFixed {
		lo, hi := e.tab.Group(g)
		q = lo
		if hi-lo > 1 {
			q += topology.ChannelID(e.rng.Intn(int(hi - lo)))
		}
	}
	e.arbQ.push(q, id, e.soa.next)
	if !e.inPending[g] {
		e.inPending[g] = true
		e.pending = append(e.pending, g)
	}
}

// grants walks every arbitration group with waiting worms and hands free
// channels to queue heads (FCFS). A pending group always has a waiter, so
// one with no free channel keeps its place without being looked into.
func (e *engine) grants(t int64) {
	kept := e.pending[:0]
	for _, g := range e.pending {
		if e.free[g] == 0 || e.grantGroup(g, t) {
			kept = append(kept, g)
		} else {
			e.inPending[g] = false
		}
	}
	e.pending = kept
}

// grantGroup returns true if the group still has waiters afterwards.
func (e *engine) grantGroup(g topology.GroupID, t int64) bool {
	e.obsVisits++
	lo, hi := e.tab.Group(g)
	if e.cfg.Policy == RandomFixed {
		waiters := false
		for ch := lo; ch < hi; ch++ {
			for !e.arbQ.empty(ch) && !e.busy[ch] {
				e.grant(e.arbQ.pop(ch, e.soa.next), ch, g, t)
			}
			if !e.arbQ.empty(ch) {
				waiters = true
			}
		}
		return waiters
	}
	for !e.arbQ.empty(g) && e.free[g] > 0 {
		ch := lo
		if hi-lo > 1 {
			ch = e.pickFree(lo, hi, e.free[g])
		}
		e.grant(e.arbQ.pop(g, e.soa.next), ch, g, t)
	}
	return !e.arbQ.empty(g)
}

// pickFree returns a uniformly random one of the n > 0 free channels of
// the group [lo, hi). Worms "select an up-link randomly" when both are
// available (§3.1).
func (e *engine) pickFree(lo, hi topology.ChannelID, n int32) topology.ChannelID {
	k := 0
	if n > 1 {
		k = e.rng.Intn(int(n))
	}
	if n == hi-lo {
		return lo + topology.ChannelID(k)
	}
	for ch := lo; ch < hi; ch++ {
		if !e.busy[ch] {
			if k == 0 {
				return ch
			}
			k--
		}
	}
	panic("sim: free-channel count out of step with the busy flags")
}

// grant advances a worm's head across channel ch of group g during cycle t.
func (e *engine) grant(id int32, ch topology.ChannelID, g topology.GroupID, t int64) {
	e.obsGrants++
	e.busy[ch] = true
	e.free[g]--
	e.acquiredAt[ch] = t
	if obs := e.cfg.HopWaitObserver; obs != nil && t >= e.measStart && t < e.measEnd {
		obs(ch, t-e.soa.enqueuedAt[id])
	}
	if len(e.soa.path[id]) == 0 {
		e.soa.grantCycle[id] = t
		src := e.soa.src[id]
		e.waitingInj[src] = false
		e.totalQueued--
		if !e.srcQ.empty(src) && !e.inInjReady[src] {
			// The source has more queued messages: its next worm is
			// created at the next cycle's arrivals phase, exactly when
			// the dense scan would notice the freed injection slot.
			e.inInjReady[src] = true
			e.injReady = append(e.injReady, src)
		}
		if e.soa.tracked[id] {
			e.wInj.Add(float64(t) - e.soa.arrival[id])
		}
	}
	e.soa.path[id] = append(e.soa.path[id], ch)
	e.shift(id, t)
	e.lastProgress = t
	dst := e.soa.dst[id]
	if e.tab.Kind[ch] == topology.KindEjection {
		if ch != e.tab.Ejection(int(dst)) {
			panic(fmt.Sprintf("sim: worm for %d delivered to %d", dst, ch/e.tab.Stride))
		}
		e.soa.consumed[id] = 1 // the head's traversal of the ejection channel
		e.countFlit(t)
		if e.soa.consumed[id] >= e.sFlits {
			e.finalize(id, t)
		} else {
			// The flits still to enter at the source (none when the worm
			// is shorter than its path) take one drain cycle each.
			e.soa.state[id] = stateDraining
			e.draining = append(e.draining, drainer{id: id, wake: t + 1 + int64(e.sFlits-e.soa.injected[id])})
		}
	} else {
		e.routeNext = append(e.routeNext, routeReq{id: id, g: e.net.NextGroup(ch, int(dst))})
	}
}

// shift moves the whole worm one channel forward: a new flit enters at the
// source, or — once all flits are in flight — the tail releases a channel.
func (e *engine) shift(id int32, t int64) {
	if e.soa.injected[id] < e.sFlits {
		e.soa.injected[id]++
		return
	}
	e.releaseTail(id, t)
}

// releaseTail is the shift of a worm whose flits are all in flight.
func (e *engine) releaseTail(id int32, t int64) {
	tail := e.soa.tailIdx[id]
	ch := e.soa.path[id][tail]
	if tail == 0 && e.soa.tracked[id] {
		// The tail flit just left the injection channel: its holding time
		// is the paper's x̄₀₁ sample.
		e.xInj.Add(float64(t - e.soa.grantCycle[id]))
	}
	e.soa.tailIdx[id] = tail + 1
	e.scheduleRelease(ch, t)
}

func (e *engine) finalize(id int32, t int64) {
	// The tail has already passed the injection channel (shift runs
	// before this in both callers), so tailIdx >= 1 here and the xInj
	// sample has been recorded.
	path := e.soa.path[id]
	for i := int(e.soa.tailIdx[id]); i < len(path); i++ {
		e.scheduleRelease(path[i], t)
	}
	e.soa.tailIdx[id] = int32(len(path))
	e.soa.state[id] = stateDone
	e.totalCompleted++
	if e.soa.tracked[id] {
		latency := float64(t+1) - e.soa.arrival[id]
		e.lat.Add(latency)
		if e.latHist != nil {
			e.latHist.Add(latency)
		}
		e.trackedCompleted++
		e.trackedOutstanding--
	}
	e.active--
	e.freeList = append(e.freeList, id)
}

// scheduleRelease frees ch at the end of cycle t and accounts its busy
// time within the measurement window.
func (e *engine) scheduleRelease(ch topology.ChannelID, t int64) {
	e.releases = append(e.releases, ch)
	lo := e.acquiredAt[ch]
	if lo < e.measStart {
		lo = e.measStart
	}
	hi := t + 1
	if hi > e.measEnd {
		hi = e.measEnd
	}
	if hi > lo {
		e.busyInMeas[ch] += hi - lo
	}
}

func (e *engine) applyReleases() {
	for _, ch := range e.releases {
		e.busy[ch] = false
		e.free[ch-topology.ChannelID(e.tab.Lead[ch])]++
	}
	e.releases = e.releases[:0]
}

func (e *engine) countFlit(t int64) {
	if t >= e.measStart && t < e.measEnd {
		e.flitsDelivered++
	}
}

// queueHalves splits the queue-length integral into the first and second
// half of the measurement window (the saturation heuristic compares them).
// With fixed-cycle runs the halves are accumulated exactly; with early
// stopping the window end is not known in advance, so the cumulative
// integral snapshots taken at each termination check are interpolated at
// the midpoint instead.
func (e *engine) queueHalves() (first, second float64) {
	if !e.term.Enabled() {
		return e.queueFirstHalf, e.queueSecondHalf
	}
	total := e.queueIntegral
	m := float64(e.measEnd - e.measStart)
	if m <= 0 {
		return 0, 0
	}
	mid := m / 2
	const ce = float64(termCheckEvery)
	var cumAtMid float64
	if len(e.qChecks) == 0 {
		cumAtMid = total * mid / m
	} else {
		i := int(mid / ce) // snapshots sit at offsets ce, 2ce, ...
		switch {
		case i == 0:
			cumAtMid = e.qChecks[0] * mid / ce
		case i >= len(e.qChecks):
			last := e.qChecks[len(e.qChecks)-1]
			lastX := float64(len(e.qChecks)) * ce
			if span := m - lastX; span > 0 {
				cumAtMid = last + (total-last)*(mid-lastX)/span
			} else {
				cumAtMid = last
			}
		default:
			base := e.qChecks[i-1]
			cumAtMid = base + (e.qChecks[i]-base)*(mid-float64(i)*ce)/ce
		}
	}
	return cumAtMid, total - cumAtMid
}

func (e *engine) finish(t int64) Result {
	simEventsPopped.Add(e.obsPopped)
	simIdleSkipped.Add(e.obsIdleSkip)
	simGroupVisits.Add(e.obsVisits)
	simGrants.Add(e.obsGrants)
	simDrainSteps.Add(e.obsDrainSteps)
	simRunsCompleted.Add(1)
	if e.reused {
		simEnginesReused.Add(1)
	} else {
		simEnginesBuilt.Add(1)
	}
	if e.earlyStopped {
		if saved := int64(e.cfg.WarmupCycles+e.cfg.MeasureCycles) - e.measEnd; saved > 0 {
			simEarlySaved.Add(saved)
		}
	}
	// Worms still asleep have delivered a flit in every cycle since their
	// head arrived.
	for _, d := range e.draining {
		if slept := int64(e.sFlits - e.soa.injected[d.id]); slept > 0 {
			e.flitsDelivered += e.measuredCycles(d.wake-slept, min(d.wake, t))
		}
	}
	// Account channels still busy at the end of the run.
	for ch := range e.busy {
		if e.busy[ch] {
			e.scheduleRelease(topology.ChannelID(ch), t-1)
		}
	}
	e.applyReleases()

	res := Result{
		Name:             e.net.Name(),
		OfferedFlits:     e.cfg.Lambda0 * float64(e.cfg.MsgFlits),
		TrackedInjected:  e.trackedArrived,
		TrackedCompleted: e.trackedCompleted,
		TotalCompleted:   e.totalCompleted,
		Cycles:           int(t),
		Replicas:         1,
		EarlyStopped:     e.earlyStopped,
	}
	e.fill(&res, e.measEnd-e.measStart, e.nProc, !e.noBusy)
	// A run is saturated when tracked messages were left unfinished, when
	// delivery fell visibly short of the offer, or when source queues
	// kept growing through the measurement window.
	firstHalf, secondHalf := e.queueHalves()
	half := float64(e.measEnd-e.measStart) / 2 * float64(e.nProc)
	queueA := firstHalf / half
	queueB := secondHalf / half
	res.Saturated = e.trackedOutstanding > 0 ||
		(res.OfferedFlits > 0 && res.ThroughputFlits < 0.9*res.OfferedFlits) ||
		queueB > 1.5*queueA+2
	return res
}

// checkInvariants asserts the rigid-worm conservation laws; it is enabled
// by white-box tests and panics on violation.
func (e *engine) checkInvariants(t int64) {
	// A sleeper's counters stand where its head arrived; the inject-only
	// cycles it has been through since, this one included, are owed.
	owed := make(map[int32]int32)
	for _, d := range e.draining {
		if slept := e.sFlits - e.soa.injected[d.id]; slept > 0 {
			owed[d.id] = slept - int32(d.wake-1-t)
		}
	}
	held := make(map[topology.ChannelID]int32)
	for id := 0; id < e.soa.len(); id++ {
		if e.soa.state[id] == stateDone {
			continue
		}
		path := e.soa.path[id]
		if len(path) == 0 {
			continue // waiting for injection (or a recycled free slot)
		}
		nHeld := len(path) - int(e.soa.tailIdx[id])
		for i := int(e.soa.tailIdx[id]); i < len(path); i++ {
			ch := path[i]
			if prev, dup := held[ch]; dup {
				panic(fmt.Sprintf("cycle %d: channel %d held by worms %d and %d", t, ch, prev, id))
			}
			held[ch] = int32(id)
		}
		injected := e.soa.injected[id] + owed[int32(id)]
		consumed := e.soa.consumed[id] + owed[int32(id)]
		flits := int(injected - consumed)
		switch e.soa.state[id] {
		case stateRouting:
			if nHeld != flits {
				panic(fmt.Sprintf("cycle %d: routing worm %d holds %d channels with %d flits in flight",
					t, id, nHeld, flits))
			}
		case stateDraining:
			if nHeld != flits+1 {
				panic(fmt.Sprintf("cycle %d: draining worm %d holds %d channels with %d flits in flight",
					t, id, nHeld, flits))
			}
		}
		if injected > e.sFlits || consumed > e.sFlits || consumed > injected {
			panic(fmt.Sprintf("cycle %d: worm %d counters injected=%d consumed=%d",
				t, id, injected, consumed))
		}
	}
	// Releases are applied before this check runs, so the busy set and
	// the held set must match exactly, and the free counters with them: a
	// group's at its first channel, 0 at every other.
	for ch, b := range e.busy {
		if _, isHeld := held[topology.ChannelID(ch)]; b != isHeld {
			panic(fmt.Sprintf("cycle %d: channel %d busy=%v held=%v", t, ch, b, isHeld))
		}
	}
	for g, free := range e.free {
		n := int32(0)
		if e.tab.Lead[g] == 0 {
			lo, hi := e.tab.Group(topology.GroupID(g))
			for ch := lo; ch < hi; ch++ {
				if !e.busy[ch] {
					n++
				}
			}
		}
		if n != free {
			panic(fmt.Sprintf("cycle %d: group %d counts %d free channels, %d are", t, g, free, n))
		}
	}
}
