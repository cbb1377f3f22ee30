package sweep

import (
	"slices"
	"sync"

	"repro/internal/eval"
	"repro/internal/obs"
)

// Cell is the cached outcome of one scenario: the merged Point of every
// backend, independent of the scenario's position in a particular sweep.
type Cell = eval.Point

// CacheStore is the result-cache contract a Runner consults, one curve
// at a time: GetCurve looks up cells of one curve — its curve key
// (Scenario.AppendCurveKey) and the cells' tokens (eval.Token) — and
// PutCurve stores freshly computed ones. The pair is a cell's key, split:
// eval.AppendJoinKey rebuilds Scenario.Key from it. Implementations must
// be safe for concurrent use; both methods may be called from every
// worker of a pool. Cache is the in-memory implementation; store.Store
// (internal/store) keeps its cells in one and logs their changes to disk,
// so they survive process restarts.
type CacheStore interface {
	// GetCurve sets found[i], and cells[i] when found, for every
	// tokens[i] on the curve, and returns how many it found.
	GetCurve(curve string, tokens []eval.Token, cells []Cell, found []bool) int
	// PutCurve stores cells[i] under the curve and tokens[i].
	PutCurve(curve string, tokens []eval.Token, cells []Cell)
}

// Cache is a concurrency-safe in-memory result cache, indexed by curve
// key, each curve holding its cells' tokens and cells in slots. A cache
// can be shared across Runners and specs: any cell of an overlapping grid
// is computed once per process, by this process or by a fleet. A runner
// with a custom backend list (WithBackends) does not consult its cache at
// all.
type Cache struct {
	mu     sync.Mutex
	curves map[string]curveSlots
	slab   []slot // the uncut rest of the slab fresh curves' slots are cut from
	cells  int
	hits   int64
	misses int64
}

// slot is one cached cell of a curve.
type slot struct {
	tok  eval.Token
	cell Cell
}

// curveSlots holds one curve's cells, which at indexes once the curve
// outgrows a scan. A fresh curve's slots are cut from the cache's slab,
// so a curve costs no allocation of its own, with a capacity of their
// own: outgrowing it moves the curve to a slice of its own, never into
// the next curve's slots.
type curveSlots struct {
	key   string
	slots []slot
	at    map[eval.Token]int32
}

// scanSlots is the longest curve whose tokens are found by a scan.
const scanSlots = 32

// slabSlots is the size of a slab: 256 slots are 18 KiB, one of the
// allocator's size classes, and hold eight curves of 32 loads.
const slabSlots = 256

// find returns the slot holding t, or -1. hint is where t sits when cells
// are asked for in the order they were put, as a re-run of a grid asks.
func (s *curveSlots) find(t eval.Token, hint int) int {
	n := len(s.slots)
	if hint < n && s.slots[hint].tok == t {
		return hint
	}
	if s.at != nil {
		if j, ok := s.at[t]; ok {
			return int(j)
		}
		return -1
	}
	for j := range s.slots {
		if s.slots[j].tok == t {
			return j
		}
	}
	return -1
}

// put stores cell under t on the curve s, with hint as for find and room
// how many more cells the caller is about to put, so a curve's slots grow
// once per batch. It counts a cell new to the cache and reports whether
// the cell changed: new, or not the same (eval.Same) as the one it
// replaces.
func (c *Cache) put(s *curveSlots, t eval.Token, cell Cell, hint, room int) bool {
	if j := s.find(t, hint); j >= 0 {
		sl := &s.slots[j]
		if eval.Same(sl.cell, cell) {
			return false
		}
		sl.cell = cell
		return true
	}
	if cap(s.slots) == 0 && room <= slabSlots {
		if len(c.slab) < room {
			c.slab = make([]slot, slabSlots)
		}
		s.slots, c.slab = c.slab[:0:room], c.slab[room:]
	} else if len(s.slots) == cap(s.slots) {
		s.slots = slices.Grow(s.slots, room)
	}
	s.slots = append(s.slots, slot{t, cell})
	switch n := len(s.slots); {
	case s.at != nil:
		s.at[t] = int32(n - 1)
	case n > scanSlots:
		s.at = make(map[eval.Token]int32, n)
		for j := range s.slots {
			s.at[s.slots[j].tok] = int32(j)
		}
	}
	c.cells++
	return true
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{curves: make(map[string]curveSlots)}
}

// GetCurve implements CacheStore, counting a hit or miss per cell.
func (c *Cache) GetCurve(curve string, tokens []eval.Token, cells []Cell, found []bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.curves[curve]
	hits := 0
	for i, t := range tokens {
		j := -1
		if ok {
			j = s.find(t, i)
		}
		if found[i] = j >= 0; found[i] {
			cells[i] = s.slots[j].cell
			hits++
		}
	}
	c.hits += int64(hits)
	c.misses += int64(len(tokens) - hits)
	return hits
}

// PutCurve implements CacheStore.
func (c *Cache) PutCurve(curve string, tokens []eval.Token, cells []Cell) {
	c.PutCurveChanged(curve, tokens, cells, nil)
}

// PutCurveChanged is PutCurve reporting what changed: it sets changed[i],
// when changed is not nil, for every cells[i] that is new or not the same
// as the cell it replaces, and returns how many were.
func (c *Cache) PutCurveChanged(curve string, tokens []eval.Token, cells []Cell, changed []bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.curves[curve]
	if !ok {
		s.key = curve
	}
	n := 0
	for i, t := range tokens {
		if c.put(&s, t, cells[i], i, len(tokens)-i) {
			if n++; changed != nil {
				changed[i] = true
			}
		}
	}
	if n > 0 {
		c.curves[s.key] = s
	}
	return n
}

// Get returns the cell cached under a full key (Scenario.Key), counting a
// hit or miss: the one-cell GetCurve, for callers that hold a joined key.
// A key eval.SplitKey refuses is a miss.
func (c *Cache) Get(key string) (cell Cell, ok bool) {
	var buf [256]byte
	curve, t, split := eval.SplitKey(buf[:0], key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, has := c.curves[string(curve)]; split && has {
		if j := s.find(t, 0); j >= 0 {
			cell, ok = s.slots[j].cell, true
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return cell, ok
}

// Put stores a cell under a full key, the one-cell PutCurve, and reports
// whether it changed. A key eval.SplitKey refuses is not a cell's key:
// Put stores nothing under it and reports false.
func (c *Cache) Put(key string, cell Cell) bool {
	var buf [256]byte
	curve, t, split := eval.SplitKey(buf[:0], key)
	return split && c.PutCurveChanged(string(curve), []eval.Token{t}, []Cell{cell}, nil) > 0
}

// Delete drops the cell cached under a full key, if there is one.
func (c *Cache) Delete(key string) {
	var buf [256]byte
	curve, t, split := eval.SplitKey(buf[:0], key)
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.curves[string(curve)]
	j := s.find(t, 0)
	if !split || !ok || j < 0 {
		return
	}
	c.cells--
	last := len(s.slots) - 1
	if last == 0 {
		delete(c.curves, s.key)
		return
	}
	// The curve's last cell takes the deleted one's slot.
	if s.at != nil {
		s.at[s.slots[last].tok] = int32(j)
		delete(s.at, t)
	}
	s.slots[j] = s.slots[last]
	s.slots = s.slots[:last]
	c.curves[s.key] = s
}

// Range calls fn for every cached cell under its full key until fn
// returns false: the cells are snapshotted (and their keys joined) under
// the lock and fn runs with the lock released, so callbacks may re-enter
// the cache and concurrent Puts never block behind a slow consumer.
// Iteration order is unspecified.
func (c *Cache) Range(fn func(key string, cell Cell) bool) {
	type kv struct {
		key  string
		cell Cell
	}
	c.mu.Lock()
	snap := make([]kv, 0, c.cells)
	var buf []byte
	for _, s := range c.curves {
		for j := range s.slots {
			sl := &s.slots[j]
			buf = eval.AppendJoinKey(buf[:0], s.key, sl.tok)
			snap = append(snap, kv{string(buf), sl.cell})
		}
	}
	c.mu.Unlock()
	for _, e := range snap {
		if !fn(e.key, e.cell) {
			return
		}
	}
}

// Len returns the number of cached cells.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Collect implements obs.Collector: the hit, miss and live-cell series of
// a result cache — of a store.Store too, whose cells live in a Cache.
func (c *Cache) Collect(emit func(obs.Sample)) {
	c.mu.Lock()
	hits, misses, cells := c.hits, c.misses, c.cells
	c.mu.Unlock()
	emit(obs.Sample{Name: "sweep_cache_hits_total", Kind: obs.KindCounter, Value: float64(hits)})
	emit(obs.Sample{Name: "sweep_cache_misses_total", Kind: obs.KindCounter, Value: float64(misses)})
	emit(obs.Sample{Name: "sweep_cache_cells", Kind: obs.KindGauge, Value: float64(cells)})
}
