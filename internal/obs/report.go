package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ReadEvents parses a stream of NDJSON span events — typically the
// concatenation of the coordinator's and every shard's trace files.
// Blank lines are skipped; a torn or malformed line is an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if ev.Trace == "" || ev.Span == "" || ev.Name == "" {
			return nil, fmt.Errorf("obs: trace line %d: missing trace/span/name", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

// Node is one span in a reassembled trace tree. Deterministic keyed
// IDs mean a span ID can legitimately recur (e.g. the same scenario
// evaluated as a probe twice); Count and DurUS then aggregate every
// occurrence while Event keeps the first.
type Node struct {
	Event    Event
	Count    int
	DurUS    int64
	Children []*Node
}

// Forest is a set of trace trees reassembled from events. Orphans are
// spans whose parent never appeared — in a healthy multi-file trace
// (coordinator + all shards concatenated) there are none.
type Forest struct {
	Roots   []*Node
	Orphans []*Node
	Nodes   map[string]*Node
	Traces  []string
}

// BuildForest reassembles span events into trees by parent ID.
func BuildForest(events []Event) *Forest {
	f := &Forest{Nodes: make(map[string]*Node, len(events))}
	traces := make(map[string]bool)
	order := make([]*Node, 0, len(events))
	for _, ev := range events {
		if n, ok := f.Nodes[ev.Span]; ok {
			n.Count++
			n.DurUS += ev.DurUS
			continue
		}
		n := &Node{Event: ev, Count: 1, DurUS: ev.DurUS}
		f.Nodes[ev.Span] = n
		order = append(order, n)
		if !traces[ev.Trace] {
			traces[ev.Trace] = true
			f.Traces = append(f.Traces, ev.Trace)
		}
	}
	for _, n := range order {
		switch parent := n.Event.Parent; {
		case parent == "":
			f.Roots = append(f.Roots, n)
		case f.Nodes[parent] != nil:
			p := f.Nodes[parent]
			p.Children = append(p.Children, n)
		default:
			f.Orphans = append(f.Orphans, n)
		}
	}
	for _, n := range order {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i].Event, n.Children[j].Event
			if a.StartUS != b.StartUS {
				return a.StartUS < b.StartUS
			}
			return a.Span < b.Span
		})
	}
	sort.Strings(f.Traces)
	return f
}

// LayerStat aggregates spans sharing a name ("layer"): span count and
// total self-reported duration.
type LayerStat struct {
	Name  string
	Count int
	DurUS int64
}

// ShardStat aggregates dispatch.range spans per shard address.
type ShardStat struct {
	Addr  string
	Spans int
	Cells int64
	DurUS int64
}

// PathStep is one hop of the critical path: the span and its depth.
type PathStep struct {
	Name  string
	DurUS int64
	Attrs map[string]any
}

// Report summarizes a trace forest for humans, tests and the bench
// ledger.
type Report struct {
	Traces      int
	Spans       int
	Events      int
	Orphans     int
	Layers      []LayerStat
	CritPath    []PathStep
	CacheHits   int
	CacheMisses int
	Decisions   map[string]int
	// Calibration observation tally from calib.observe spans: how many
	// sim-carrying cells the run offered the calibration map, and how
	// many became model-vs-sim pairs (the rest were duplicates,
	// saturated, or unparseable).
	CalibObserved int
	CalibPaired   int
	Shards        []ShardStat
	RootDurUS     int64
	RootName      string
}

// Analyze reassembles events and computes the summary: per-layer time,
// the critical path of the longest trace, cache hit ratio from
// eval-cell spans, and per-shard skew from dispatch.range spans.
func Analyze(events []Event) *Report {
	f := BuildForest(events)
	r := &Report{
		Traces:    len(f.Traces),
		Spans:     len(f.Nodes),
		Events:    len(events),
		Orphans:   len(f.Orphans),
		Decisions: make(map[string]int),
	}
	layers := make(map[string]*LayerStat)
	shards := make(map[string]*ShardStat)
	for _, ev := range events {
		ls := layers[ev.Name]
		if ls == nil {
			ls = &LayerStat{Name: ev.Name}
			layers[ev.Name] = ls
		}
		ls.Count++
		ls.DurUS += ev.DurUS
		if c, ok := ev.Attrs["cached"].(bool); ok {
			if c {
				r.CacheHits++
			} else {
				r.CacheMisses++
			}
		}
		if v, ok := ev.Attrs["verdict"].(string); ok {
			r.Decisions[v]++
		}
		if ev.Name == "calib.observe" {
			r.CalibObserved++
			if p, ok := ev.Attrs["paired"].(bool); ok && p {
				r.CalibPaired++
			}
		}
		if addr, ok := ev.Attrs["shard"].(string); ok {
			ss := shards[addr]
			if ss == nil {
				ss = &ShardStat{Addr: addr}
				shards[addr] = ss
			}
			ss.Spans++
			ss.DurUS += ev.DurUS
			if cells, ok := attrInt64(ev.Attrs["cells"]); ok {
				ss.Cells += cells
			}
		}
	}
	for _, ls := range layers {
		r.Layers = append(r.Layers, *ls)
	}
	sort.Slice(r.Layers, func(i, j int) bool { return r.Layers[i].DurUS > r.Layers[j].DurUS })
	for _, ss := range shards {
		r.Shards = append(r.Shards, *ss)
	}
	sort.Slice(r.Shards, func(i, j int) bool { return r.Shards[i].Addr < r.Shards[j].Addr })

	// Critical path: walk the longest root, descending into the
	// longest child at every level.
	var root *Node
	for _, n := range f.Roots {
		if root == nil || n.Event.DurUS > root.Event.DurUS {
			root = n
		}
	}
	if root != nil {
		r.RootName = root.Event.Name
		r.RootDurUS = root.Event.DurUS
		for n := root; n != nil; {
			r.CritPath = append(r.CritPath, PathStep{Name: n.Event.Name, DurUS: n.Event.DurUS, Attrs: n.Event.Attrs})
			var next *Node
			for _, c := range n.Children {
				if next == nil || c.Event.DurUS > next.Event.DurUS {
					next = c
				}
			}
			n = next
		}
	}
	return r
}

// attrInt64 widens the numeric types json.Unmarshal can produce.
func attrInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case float64:
		return int64(x), true
	case int64:
		return x, true
	case int:
		return int64(x), true
	}
	return 0, false
}

// Format renders the report as aligned plain text.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "traces: %d  spans: %d  events: %d  orphans: %d\n",
		r.Traces, r.Spans, r.Events, r.Orphans)
	if r.RootName != "" {
		fmt.Fprintf(w, "root: %s  %s\n", r.RootName, usToString(r.RootDurUS))
	}
	if total := r.CacheHits + r.CacheMisses; total > 0 {
		fmt.Fprintf(w, "cache: %d hits / %d misses (%.1f%% hit ratio)\n",
			r.CacheHits, r.CacheMisses, 100*float64(r.CacheHits)/float64(total))
	}
	if len(r.Decisions) > 0 {
		verdicts := make([]string, 0, len(r.Decisions))
		for v := range r.Decisions {
			verdicts = append(verdicts, v)
		}
		sort.Strings(verdicts)
		fmt.Fprintf(w, "decisions:")
		for _, v := range verdicts {
			fmt.Fprintf(w, " %s=%d", v, r.Decisions[v])
		}
		fmt.Fprintln(w)
	}
	if r.CalibObserved > 0 {
		fmt.Fprintf(w, "calibration: %d cell(s) observed, %d paired\n", r.CalibObserved, r.CalibPaired)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "per-layer time:")
		for _, ls := range r.Layers {
			fmt.Fprintf(w, "  %-24s %6d span(s)  %s\n", ls.Name, ls.Count, usToString(ls.DurUS))
		}
	}
	if len(r.Shards) > 0 {
		fmt.Fprintln(w, "per-shard skew:")
		var maxDur, minDur int64 = 0, -1
		for _, ss := range r.Shards {
			fmt.Fprintf(w, "  %-28s %4d range(s)  %6d cell(s)  %s\n",
				ss.Addr, ss.Spans, ss.Cells, usToString(ss.DurUS))
			if ss.DurUS > maxDur {
				maxDur = ss.DurUS
			}
			if minDur < 0 || ss.DurUS < minDur {
				minDur = ss.DurUS
			}
		}
		if len(r.Shards) > 1 && minDur > 0 {
			fmt.Fprintf(w, "  skew (max/min shard time): %.2fx\n", float64(maxDur)/float64(minDur))
		}
	}
	if len(r.CritPath) > 0 {
		fmt.Fprintln(w, "critical path:")
		for i, st := range r.CritPath {
			fmt.Fprintf(w, "  %s%s %s\n", strings.Repeat("  ", i), st.Name, usToString(st.DurUS))
		}
	}
}

func usToString(us int64) string {
	switch {
	case us >= 1_000_000:
		return strconv.FormatFloat(float64(us)/1e6, 'f', 2, 64) + "s"
	case us >= 1_000:
		return strconv.FormatFloat(float64(us)/1e3, 'f', 2, 64) + "ms"
	}
	return strconv.FormatInt(us, 10) + "us"
}

// CheckForest validates well-formedness (obsreport -check): at least one
// span, no orphans (every parent present — shard trees stitched to the
// coordinator's), and exactly one root per trace.
func CheckForest(f *Forest) error {
	if len(f.Nodes) == 0 {
		return fmt.Errorf("obs: trace is empty")
	}
	if len(f.Orphans) > 0 {
		o := f.Orphans[0]
		return fmt.Errorf("obs: %d orphan span(s): e.g. %s (%s) references missing parent %s",
			len(f.Orphans), o.Event.Span, o.Event.Name, o.Event.Parent)
	}
	rootsPerTrace := make(map[string]int)
	for _, n := range f.Roots {
		rootsPerTrace[n.Event.Trace]++
	}
	for _, trace := range f.Traces {
		if rootsPerTrace[trace] != 1 {
			return fmt.Errorf("obs: trace %s has %d roots, want 1", trace, rootsPerTrace[trace])
		}
	}
	return nil
}

// ParseMetrics validates a Prometheus text-format exposition and
// returns sample values keyed by the full sample line's name+labels.
// obsreport -metrics and the daemon tests use it to prove /metrics
// stays machine-parseable.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	out := make(map[string]float64)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sp := strings.LastIndexByte(text, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("obs: metrics line %d: no value: %q", line, text)
		}
		name, val := text[:sp], text[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: bad value %q: %v", line, val, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("obs: metrics line %d: duplicate sample %q", line, name)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading metrics: %w", err)
	}
	return out, nil
}
