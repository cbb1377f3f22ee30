package main

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// layerOf maps a span name to the module that owns it. eval.cell spans
// have no children on model-only cells, so the eval row holds the
// backends and the math beneath them; bench.* spans are the harness's
// own, whose self time is whatever a callee does before opening its
// first span (grid expansion, store open, client set-up).
func layerOf(span string) string {
	switch {
	case strings.HasPrefix(span, "serve:"):
		return "serve"
	case span == "sweep.run":
		return "sweep"
	case span == "eval.cell":
		return "eval"
	}
	if i := strings.IndexByte(span, '.'); i > 0 {
		return span[:i]
	}
	return span
}

// layerTime is one row of a workload's where-did-the-time-go table.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// traceSummary is the traced phase of one workload read back from its
// own spans.
type traceSummary struct {
	Passes int     `json:"passes"`
	WallMS float64 `json:"wall_ms"`
	Spans  int     `json:"spans"`
	// Layers holds each layer's share of the wall clock, plus an
	// "untracked" row for the time no span covers; the rows sum to
	// WallMS by construction, and SumRatio records how close the spans'
	// own microsecond clocks come to the harness's wall time.
	Layers   []layerTime `json:"layers"`
	SumRatio float64     `json:"sum_ratio"`
	// selfUS is the plain self time (span minus the union of its
	// children) summed by span name, for the per-layer metrics.
	selfUS map[string]float64
	// units is the work the traced passes did: cells, probes and plans.
	units float64
}

// attribute computes the summary. Self time is a span's duration minus
// the union of its children; because workers overlap, plain self times
// add up to more than the wall clock, so the table splits every instant
// equally among the spans that are then running their own code. The
// rows therefore sum to the time covered by any span, and "untracked"
// is the remainder of wallUS.
func attribute(events []obs.Event, passes int, wallUS float64) traceSummary {
	sum := traceSummary{Passes: passes, WallMS: wallUS / 1e3, Spans: len(events), selfUS: make(map[string]float64)}
	// Every pass roots its own trace (the root's ID comes from a
	// sequence), so span IDs do not recur and obs's forest keeps every
	// span's own interval.
	type piece struct {
		iv    interval
		layer string
	}
	var pieces []piece
	count := make(map[string]int)
	for _, n := range obs.BuildForest(events).Nodes {
		lo, hi := n.Event.StartUS, n.Event.StartUS+n.Event.DurUS
		layer := layerOf(n.Event.Name)
		count[layer]++
		cur := lo
		var self int64
		emit := func(s, e int64) {
			if e > hi {
				e = hi
			}
			if e > s {
				pieces = append(pieces, piece{interval{s, e}, layer})
				self += e - s
			}
		}
		for _, c := range n.Children { // sorted by start
			emit(cur, c.Event.StartUS)
			if end := c.Event.StartUS + c.Event.DurUS; end > cur {
				cur = end
			}
		}
		emit(cur, hi)
		sum.selfUS[n.Event.Name] += float64(self)
	}

	// Sweep the timeline: between consecutive boundaries the set of
	// running pieces is constant, and each gets an equal share.
	type edge struct {
		at    int64
		delta int
		layer string
	}
	edges := make([]edge, 0, 2*len(pieces))
	for _, p := range pieces {
		edges = append(edges, edge{p.iv.start, 1, p.layer}, edge{p.iv.end, -1, p.layer})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	active := make(map[string]int)
	total := 0
	share := make(map[string]float64)
	var covered float64
	for i, e := range edges {
		if i > 0 && total > 0 {
			dt := float64(e.at - edges[i-1].at)
			covered += dt
			for layer, n := range active {
				if n > 0 {
					share[layer] += dt * float64(n) / float64(total)
				}
			}
		}
		active[e.layer] += e.delta
		total += e.delta
	}
	for layer, v := range share {
		sum.Layers = append(sum.Layers, layerTime{Layer: layer, SelfMS: v / 1e3, Share: v / wallUS, Spans: count[layer]})
	}
	sort.Slice(sum.Layers, func(i, j int) bool { return sum.Layers[i].SelfMS > sum.Layers[j].SelfMS })
	untracked := wallUS - covered
	sum.Layers = append(sum.Layers, layerTime{Layer: "untracked", SelfMS: untracked / 1e3, Share: untracked / wallUS})
	sum.SumRatio = covered / wallUS
	return sum
}
