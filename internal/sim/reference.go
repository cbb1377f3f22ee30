package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// This file preserves the original dense per-cycle engine verbatim. It is
// NOT dead code: it is the determinism oracle the event-driven engine is
// pinned against (TestEventEngineMatchesReference and friends assert
// bit-identical Results on the figure3/table2 scenario families). It
// advances every cycle and scans every source each
// cycle — exactly the cost profile the rewrite removes — so any
// behavioural drift in the new engine shows up as a bit-level diff here
// rather than as silent statistical noise.

// fifo is an amortised O(1) FIFO, the reference engine's queue (the event
// engine threads its queues through its slabs instead; see linkedQueues).
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }
func (q *fifo[T]) empty() bool {
	return q.head >= len(q.items)
}
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}
func (q *fifo[T]) len() int { return len(q.items) - q.head }

// refWorm is one in-flight message of the reference engine (the original
// array-of-structs layout).
type refWorm struct {
	src, dst   int32
	arrival    float64
	grantCycle int64
	path       []topology.ChannelID
	tailIdx    int32
	injected   int32
	consumed   int32
	state      wormState
	tracked    bool
	drainFrom  int64
	enqueuedAt int64
}

type refEngine struct {
	cfg    Config
	net    topology.Network
	groups [][]topology.ChannelID
	nProc  int
	sFlits int32

	worms    []refWorm
	freeList []int32
	active   int

	busy       []bool
	acquiredAt []int64
	busyInMeas []int64

	groupQ    []fifo[int32]
	chanQ     []fifo[int32]
	pending   []topology.GroupID
	inPending []bool

	routeNow, routeNext []int32
	draining            []int32
	releases            []topology.ChannelID

	sources    []*traffic.PoissonSource
	srcRNG     []*traffic.RNG
	pendingArr []fifo[float64]
	waitingInj []bool
	rng        *traffic.RNG

	measStart, measEnd int64
	lat                *stats.BatchMeans
	latAll             stats.Stream
	latHist            *stats.Histogram
	wInj, xInj         stats.Stream
	flitsDelivered     int64
	queueFirstHalf     float64
	queueSecondHalf    float64
	trackedArrived     int
	trackedCompleted   int
	trackedOutstanding int
	totalCompleted     int
	totalQueued        int
	queueIntegral      float64
	lastProgress       int64
}

// RunReference simulates the configured system with the original dense
// per-cycle engine. It is kept as the determinism oracle for the
// event-driven Run — a fixed Config must produce a bit-identical Result
// through either. It supports no options (no early stopping, no replicas).
func RunReference(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Workload.IsDefault() || cfg.Trace != nil || cfg.Recorder != nil {
		return nil, errors.New("sim: the reference engine supports only the default steady uniform Poisson workload")
	}
	e, err := newRefEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

func newRefEngine(cfg Config) (*refEngine, error) {
	net := cfg.Net
	nProc := net.NumProcessors()
	nCh := net.NumChannels()
	nGr := len(net.Groups())
	e := &refEngine{
		cfg:        cfg,
		net:        net,
		groups:     net.Groups(),
		nProc:      nProc,
		sFlits:     int32(cfg.MsgFlits),
		busy:       make([]bool, nCh),
		acquiredAt: make([]int64, nCh),
		busyInMeas: make([]int64, nCh),
		groupQ:     make([]fifo[int32], nGr),
		chanQ:      make([]fifo[int32], nCh),
		inPending:  make([]bool, nGr),
		sources:    make([]*traffic.PoissonSource, nProc),
		srcRNG:     make([]*traffic.RNG, nProc),
		pendingArr: make([]fifo[float64], nProc),
		waitingInj: make([]bool, nProc),
		measStart:  int64(cfg.WarmupCycles),
		measEnd:    int64(cfg.WarmupCycles + cfg.MeasureCycles),
		lat:        stats.NewBatchMeans(batchSize),
	}
	if cfg.LatencyHistogram {
		e.latHist = stats.NewHistogram(0, histReach*float64(cfg.MsgFlits+diameter(net)), histBins)
	}
	master := traffic.NewRNG(cfg.Seed)
	e.rng = master.Split(streamShuffle)
	for p := 0; p < nProc; p++ {
		e.srcRNG[p] = master.Split(streamDest(p))
		src, err := traffic.NewPoissonSource(cfg.Lambda0, master.Split(streamArrival(p)))
		if err != nil {
			return nil, err
		}
		e.sources[p] = src
	}
	return e, nil
}

func (e *refEngine) run(ctx context.Context) (*Result, error) {
	hardEnd := e.measEnd + int64(e.cfg.drainLimit())
	t := int64(0)
	for ; ; t++ {
		if t >= e.measEnd && (e.trackedOutstanding == 0 || t >= hardEnd) {
			break
		}
		if t&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: aborted at cycle %d: %w", t, err)
			}
		}
		if e.active > 0 && t-e.lastProgress > progressTimeout {
			return nil, fmt.Errorf("%w (cycle %d, %d worms active)", ErrDeadlock, t, e.active)
		}
		e.arrivals(t)
		if t >= e.measStart && t < e.measEnd {
			e.queueIntegral += float64(e.totalQueued)
			if t-e.measStart < (e.measEnd-e.measStart)/2 {
				e.queueFirstHalf += float64(e.totalQueued)
			} else {
				e.queueSecondHalf += float64(e.totalQueued)
			}
		}
		e.drain(t)
		e.requests(t)
		e.grants(t)
		e.applyReleases()
		e.routeNow, e.routeNext = e.routeNext, e.routeNow[:0]
	}
	return e.finish(t), nil
}

func (e *refEngine) arrivals(t int64) {
	limit := float64(t)
	for p := 0; p < e.nProc; p++ {
		for {
			a, ok := e.sources[p].PopBefore(limit)
			if !ok {
				break
			}
			e.pendingArr[p].push(a)
			e.totalQueued++
			if a >= float64(e.measStart) && a < float64(e.measEnd) {
				e.trackedArrived++
				e.trackedOutstanding++
			}
		}
		if !e.waitingInj[p] && !e.pendingArr[p].empty() {
			e.createWorm(p, t)
		}
	}
}

func (e *refEngine) createWorm(p int, t int64) {
	a := e.pendingArr[p].pop()
	id := e.alloc()
	w := &e.worms[id]
	w.src = int32(p)
	w.dst = int32(e.cfg.pattern().Dest(p, e.nProc, e.srcRNG[p]))
	w.arrival = a
	w.state = stateRouting
	w.tracked = a >= float64(e.measStart) && a < float64(e.measEnd)
	inj := e.net.InjectionChannel(p)
	e.enqueue(e.net.GroupOf(inj), id, t)
	e.waitingInj[p] = true
	e.active++
}

func (e *refEngine) alloc() int32 {
	if n := len(e.freeList); n > 0 {
		id := e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		path := e.worms[id].path[:0]
		e.worms[id] = refWorm{path: path}
		return id
	}
	e.worms = append(e.worms, refWorm{})
	return int32(len(e.worms) - 1)
}

func (e *refEngine) drain(t int64) {
	kept := e.draining[:0]
	for _, id := range e.draining {
		w := &e.worms[id]
		if w.drainFrom > t {
			kept = append(kept, id)
			continue
		}
		w.consumed++
		e.countFlit(t)
		e.shift(w, t)
		e.lastProgress = t
		if w.consumed >= e.sFlits {
			e.finalize(w, id, t)
		} else {
			kept = append(kept, id)
		}
	}
	e.draining = kept
}

func (e *refEngine) requests(t int64) {
	rn := e.routeNow
	for i := len(rn) - 1; i > 0; i-- {
		j := e.rng.Intn(i + 1)
		rn[i], rn[j] = rn[j], rn[i]
	}
	for _, id := range rn {
		w := &e.worms[id]
		g := e.net.NextGroup(w.path[len(w.path)-1], int(w.dst))
		e.enqueue(g, id, t)
	}
}

func (e *refEngine) enqueue(g topology.GroupID, id int32, t int64) {
	e.worms[id].enqueuedAt = t
	if e.cfg.Policy == RandomFixed {
		members := e.groups[g]
		ch := members[0]
		if len(members) > 1 {
			ch = members[e.rng.Intn(len(members))]
		}
		e.chanQ[ch].push(id)
	} else {
		e.groupQ[g].push(id)
	}
	if !e.inPending[g] {
		e.inPending[g] = true
		e.pending = append(e.pending, g)
	}
}

func (e *refEngine) grants(t int64) {
	kept := e.pending[:0]
	for _, g := range e.pending {
		if e.grantGroup(g, t) {
			kept = append(kept, g)
		} else {
			e.inPending[g] = false
		}
	}
	e.pending = kept
}

func (e *refEngine) grantGroup(g topology.GroupID, t int64) bool {
	members := e.groups[g]
	if e.cfg.Policy == RandomFixed {
		waiters := false
		for _, ch := range members {
			q := &e.chanQ[ch]
			for !q.empty() && !e.busy[ch] {
				e.grant(q.pop(), ch, t)
			}
			if !q.empty() {
				waiters = true
			}
		}
		return waiters
	}
	q := &e.groupQ[g]
	for !q.empty() {
		ch := e.pickFree(members)
		if ch < 0 {
			break
		}
		e.grant(q.pop(), topology.ChannelID(ch), t)
	}
	return !q.empty()
}

func (e *refEngine) pickFree(members []topology.ChannelID) int32 {
	n := 0
	for _, ch := range members {
		if !e.busy[ch] {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := 0
	if n > 1 {
		k = e.rng.Intn(n)
	}
	for _, ch := range members {
		if !e.busy[ch] {
			if k == 0 {
				return ch
			}
			k--
		}
	}
	return -1 // unreachable
}

func (e *refEngine) grant(id int32, ch topology.ChannelID, t int64) {
	w := &e.worms[id]
	e.busy[ch] = true
	e.acquiredAt[ch] = t
	if obs := e.cfg.HopWaitObserver; obs != nil && t >= e.measStart && t < e.measEnd {
		obs(ch, t-w.enqueuedAt)
	}
	if len(w.path) == 0 {
		w.grantCycle = t
		e.waitingInj[w.src] = false
		e.totalQueued--
		if w.tracked {
			e.wInj.Add(float64(t) - w.arrival)
		}
	}
	w.path = append(w.path, ch)
	e.shift(w, t)
	e.lastProgress = t
	if p := e.net.EjectsTo(ch); p >= 0 {
		if p != int(w.dst) {
			panic(fmt.Sprintf("sim: worm for %d delivered to %d", w.dst, p))
		}
		w.consumed = 1
		e.countFlit(t)
		if w.consumed >= e.sFlits {
			e.finalize(w, id, t)
		} else {
			w.state = stateDraining
			w.drainFrom = t + 1
			e.draining = append(e.draining, id)
		}
	} else {
		e.routeNext = append(e.routeNext, id)
	}
}

func (e *refEngine) shift(w *refWorm, t int64) {
	if w.injected < e.sFlits {
		w.injected++
		return
	}
	ch := w.path[w.tailIdx]
	if w.tailIdx == 0 && w.tracked {
		e.xInj.Add(float64(t - w.grantCycle))
	}
	w.tailIdx++
	e.scheduleRelease(ch, t)
}

func (e *refEngine) finalize(w *refWorm, id int32, t int64) {
	for i := int(w.tailIdx); i < len(w.path); i++ {
		e.scheduleRelease(w.path[i], t)
	}
	w.tailIdx = int32(len(w.path))
	w.state = stateDone
	e.totalCompleted++
	if w.tracked {
		latency := float64(t+1) - w.arrival
		e.lat.Add(latency)
		e.latAll.Add(latency)
		if e.latHist != nil {
			e.latHist.Add(latency)
		}
		e.trackedCompleted++
		e.trackedOutstanding--
	}
	e.active--
	e.freeList = append(e.freeList, id)
}

func (e *refEngine) scheduleRelease(ch topology.ChannelID, t int64) {
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

func (e *refEngine) applyReleases() {
	for _, ch := range e.releases {
		e.busy[ch] = false
	}
	e.releases = e.releases[:0]
}

func (e *refEngine) countFlit(t int64) {
	if t >= e.measStart && t < e.measEnd {
		e.flitsDelivered++
	}
}

func (e *refEngine) finish(t int64) *Result {
	for ch := range e.busy {
		if e.busy[ch] {
			e.scheduleRelease(topology.ChannelID(ch), t-1)
		}
	}
	e.applyReleases()

	meas := float64(e.cfg.MeasureCycles)
	res := &Result{
		Name:             e.net.Name(),
		LatencyMean:      e.latAll.Mean(),
		LatencyCI95:      e.lat.HalfWidth(0.95),
		LatencyMin:       e.latAll.Min(),
		LatencyMax:       e.latAll.Max(),
		WaitInjMean:      e.wInj.Mean(),
		ServiceInjMean:   e.xInj.Mean(),
		ThroughputFlits:  float64(e.flitsDelivered) / (meas * float64(e.nProc)),
		OfferedFlits:     e.cfg.Lambda0 * float64(e.cfg.MsgFlits),
		TrackedInjected:  e.trackedArrived,
		TrackedCompleted: e.trackedCompleted,
		TotalCompleted:   e.totalCompleted,
		Cycles:           int(t),
		MeanSourceQueue:  e.queueIntegral / (meas * float64(e.nProc)),
		ChannelBusy:      make([]float64, len(e.busyInMeas)),
		Replicas:         1,
		MeasuredCycles:   e.cfg.MeasureCycles,
	}
	half := meas / 2 * float64(e.nProc)
	queueA := e.queueFirstHalf / half
	queueB := e.queueSecondHalf / half
	res.Saturated = e.trackedOutstanding > 0 ||
		(res.OfferedFlits > 0 && res.ThroughputFlits < 0.9*res.OfferedFlits) ||
		queueB > 1.5*queueA+2
	res.Precision = relPrecision(res.LatencyCI95, res.LatencyMean)
	res.LatencyP50, res.LatencyP95, res.LatencyP99 = math.NaN(), math.NaN(), math.NaN()
	if e.latHist != nil && e.latHist.Total() > 0 {
		res.LatencyP50 = e.latHist.Quantile(0.50)
		res.LatencyP95 = e.latHist.Quantile(0.95)
		res.LatencyP99 = e.latHist.Quantile(0.99)
	}
	for ch, b := range e.busyInMeas {
		res.ChannelBusy[ch] = float64(b) / meas
	}
	return res
}
