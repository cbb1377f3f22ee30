package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// TraceVersion is the NDJSON trace format version this package writes
// and accepts.
const TraceVersion = 1

// TraceHeader is the first NDJSON line of a trace file: everything
// needed to rebuild the recording run bit-identically. Replay feeds the
// recorded arrivals to an engine configured from these fields; with the
// same seed (which still drives the arbitration shuffle stream), the
// replayed Result is bit-identical to the recorded one.
type TraceHeader struct {
	Version int `json:"trace_version"`
	// Family and Size identify the network ("fattree" or "hypercube",
	// Size processors).
	Family string `json:"family"`
	Size   int    `json:"size"`
	// MsgFlits is the message length every recorded arrival used.
	MsgFlits int `json:"msg_flits"`
	// Lambda0 is the configured mean arrival rate (messages/cycle/PE) —
	// the offered load the Result reports against.
	Lambda0 float64 `json:"lambda0"`
	// Warmup, Measure and DrainLimit are the recording run's windows
	// (DrainLimit 0 = the engine default).
	Warmup     int `json:"warmup"`
	Measure    int `json:"measure"`
	DrainLimit int `json:"drain_limit,omitempty"`
	// Seed seeds the non-arrival streams (arbitration shuffle) on
	// replay, exactly as in the recording run.
	Seed uint64 `json:"seed"`
	// Policy is the up-link policy name ("pairqueue"/"randomfixed").
	Policy string `json:"policy"`
	// Workload is the canonical key of the generating workload spec
	// (informational).
	Workload string `json:"workload,omitempty"`
}

// TraceEvent is one recorded arrival: source, pre-drawn destination,
// arrival cycle (continuous time), and message length in flits.
type TraceEvent struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	Cycle    float64 `json:"cycle"`
	MsgFlits int     `json:"msg_flits"`
}

// Trace is a parsed arrival trace: header plus events sorted by cycle
// (ties by source, then destination).
type Trace struct {
	Header TraceHeader
	Events []TraceEvent
}

// SortEvents puts events into the canonical file order.
func SortEvents(events []TraceEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// WriteTrace writes the NDJSON trace: one header line, one line per
// event, in canonical order.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := tr.Header
	hdr.Version = TraceVersion
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("workload: writing trace header: %w", err)
	}
	events := append([]TraceEvent(nil), tr.Events...)
	SortEvents(events)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("workload: writing trace event: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses an NDJSON trace and validates it: version, a size
// the simulator can build (checked before anything is sized from it),
// source and destination ranges, non-negative cycles, and per-source
// monotone arrival times.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("workload: empty trace")
	}
	tr := &Trace{}
	if err := json.Unmarshal(sc.Bytes(), &tr.Header); err != nil {
		return nil, fmt.Errorf("workload: decoding trace header: %w", err)
	}
	h := tr.Header
	if h.Version != TraceVersion {
		return nil, fmt.Errorf("workload: trace version %d, want %d", h.Version, TraceVersion)
	}
	if h.Size < 2 || h.MsgFlits < 1 {
		return nil, fmt.Errorf("workload: bad trace header: size=%d msg_flits=%d", h.Size, h.MsgFlits)
	}
	if h.Size > topology.MaxProcessors {
		return nil, fmt.Errorf("workload: trace size %d is too large to simulate: the limit is %d processors", h.Size, topology.MaxProcessors)
	}
	lastBySrc := make([]float64, h.Size)
	for i := range lastBySrc {
		lastBySrc[i] = -1
	}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if ev.Src < 0 || ev.Src >= h.Size || ev.Dst < 0 || ev.Dst >= h.Size || ev.Dst == ev.Src {
			return nil, fmt.Errorf("workload: trace line %d: bad src/dst %d->%d for %d processors",
				line, ev.Src, ev.Dst, h.Size)
		}
		if ev.Cycle < 0 || math.IsNaN(ev.Cycle) || math.IsInf(ev.Cycle, 0) {
			return nil, fmt.Errorf("workload: trace line %d: bad cycle %v", line, ev.Cycle)
		}
		if ev.MsgFlits != h.MsgFlits {
			return nil, fmt.Errorf("workload: trace line %d: msg_flits %d differs from header %d",
				line, ev.MsgFlits, h.MsgFlits)
		}
		if ev.Cycle < lastBySrc[ev.Src] {
			return nil, fmt.Errorf("workload: trace line %d: arrivals for source %d not monotone",
				line, ev.Src)
		}
		lastBySrc[ev.Src] = ev.Cycle
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	SortEvents(tr.Events)
	return tr, nil
}

// Sources partitions the trace into one replay source per processor.
// Each TraceSource replays its recorded arrival times and destinations
// in order; the engine consumes them through the same Peek/PopBefore
// interface as generated sources, so replay is bit-identical.
func (tr *Trace) Sources() []traffic.Source {
	per := make([][]TraceEvent, tr.Header.Size)
	for _, ev := range tr.Events {
		per[ev.Src] = append(per[ev.Src], ev)
	}
	out := make([]traffic.Source, tr.Header.Size)
	slab := make([]TraceSource, tr.Header.Size)
	span := tr.Span()
	for p := range out {
		rate := 0.0
		if span > 0 {
			rate = float64(len(per[p])) / span
		}
		slab[p] = TraceSource{events: per[p], rate: rate, lastDst: -1}
		out[p] = &slab[p]
	}
	return out
}

// Span returns the trace duration in cycles (last arrival time).
func (tr *Trace) Span() float64 {
	if len(tr.Events) == 0 {
		return 0
	}
	return tr.Events[len(tr.Events)-1].Cycle
}

// TraceSource replays one processor's recorded arrivals. It implements
// traffic.DestSource: destinations were drawn at record time and ride
// along with the arrival times.
type TraceSource struct {
	events  []TraceEvent
	idx     int
	rate    float64
	lastDst int
}

// Rate returns the empirical mean arrival rate over the trace span.
func (s *TraceSource) Rate() float64 { return s.rate }

// Peek returns the next recorded arrival time, +Inf when exhausted.
func (s *TraceSource) Peek() float64 {
	if s.idx >= len(s.events) {
		return math.Inf(1)
	}
	return s.events[s.idx].Cycle
}

// PopBefore consumes the next arrival if it is strictly before limit.
func (s *TraceSource) PopBefore(limit float64) (float64, bool) {
	if s.idx >= len(s.events) || s.events[s.idx].Cycle >= limit {
		return 0, false
	}
	ev := s.events[s.idx]
	s.idx++
	s.lastDst = ev.Dst
	return ev.Cycle, true
}

// LastDest implements traffic.DestSource.
func (s *TraceSource) LastDest() int { return s.lastDst }

// TraceStats summarises a trace for bft stats.
type TraceStats struct {
	Events int     `json:"events"`
	Span   float64 `json:"span_cycles"`
	// MeanRate is messages/cycle/PE over the span.
	MeanRate float64 `json:"mean_rate"`
	// SCV is the pooled squared coefficient of variation of per-source
	// interarrival times (1 ≈ Poisson, > 1 bursty); NaN-free: 0 when
	// there are too few samples.
	SCV float64 `json:"interarrival_scv"`
	// ActiveSources counts sources with at least one arrival.
	ActiveSources int `json:"active_sources"`
	// TopDests lists the most-hit destinations with their traffic share.
	TopDests []DestShare `json:"top_dests,omitempty"`
}

// DestShare is one destination's share of trace traffic.
type DestShare struct {
	Dst   int     `json:"dst"`
	Share float64 `json:"share"`
}

// Stats computes summary statistics over the trace.
func (tr *Trace) Stats(topK int) TraceStats {
	st := TraceStats{Events: len(tr.Events), Span: tr.Span()}
	if st.Span > 0 {
		st.MeanRate = float64(st.Events) / st.Span / float64(tr.Header.Size)
	}
	last := make([]float64, tr.Header.Size)
	seen := make([]bool, tr.Header.Size)
	dstCount := make([]int, tr.Header.Size)
	var n int
	var sum, sumSq float64
	for _, ev := range tr.Events {
		dstCount[ev.Dst]++
		if seen[ev.Src] {
			gap := ev.Cycle - last[ev.Src]
			n++
			sum += gap
			sumSq += gap * gap
		}
		seen[ev.Src] = true
		last[ev.Src] = ev.Cycle
	}
	for _, s := range seen {
		if s {
			st.ActiveSources++
		}
	}
	if n >= 2 && sum > 0 {
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance > 0 {
			st.SCV = variance / (mean * mean)
		}
	}
	type ds struct {
		dst, count int
	}
	order := make([]ds, 0, tr.Header.Size)
	for d, c := range dstCount {
		if c > 0 {
			order = append(order, ds{d, c})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].count != order[j].count {
			return order[i].count > order[j].count
		}
		return order[i].dst < order[j].dst
	})
	if topK > len(order) {
		topK = len(order)
	}
	for _, o := range order[:topK] {
		st.TopDests = append(st.TopDests, DestShare{
			Dst: o.dst, Share: float64(o.count) / float64(len(tr.Events)),
		})
	}
	return st
}
