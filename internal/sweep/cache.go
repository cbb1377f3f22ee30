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
// eval.AppendJoinKey rebuilds Scenario.Key from it, and a store that
// keeps full keys joins them itself. Implementations must be safe for
// concurrent use; both methods may be called from every worker of a pool.
// Cache is the in-memory implementation; store.Store (internal/store)
// persists cells across process restarts behind the same contract.
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
	// loose holds the cells Put under a key outside the key grammar
	// (one eval.SplitKey refuses).
	loose  map[string]Cell
	cells  int
	hits   int64
	misses int64
}

// slot is one cached cell of a curve.
type slot struct {
	tok  eval.Token
	cell Cell
}

// curveSlots holds one curve's cells. The first is inline, so the curve of
// a single probe costs no allocation of its own; the rest are in more, and
// at indexes them once the curve outgrows a scan.
type curveSlots struct {
	key   string
	first slot
	more  []slot
	at    map[eval.Token]int32
}

// scanSlots is the longest curve whose tokens are found by a scan.
const scanSlots = 32

func (s *curveSlots) len() int { return 1 + len(s.more) }

func (s *curveSlots) slot(j int) *slot {
	if j == 0 {
		return &s.first
	}
	return &s.more[j-1]
}

// find returns the slot holding t, or -1. hint is where t sits when cells
// are asked for in the order they were put, as a re-run of a grid asks.
func (s *curveSlots) find(t eval.Token, hint int) int {
	n := s.len()
	if hint < n && s.slot(hint).tok == t {
		return hint
	}
	if s.at != nil {
		if j, ok := s.at[t]; ok {
			return int(j)
		}
		return -1
	}
	for j := 0; j < n; j++ {
		if s.slot(j).tok == t {
			return j
		}
	}
	return -1
}

// put stores cell under t, hint as for find; room is how many more cells
// the caller is about to put, so a curve's slots grow once per batch. It
// reports whether t is new to the curve.
func (s *curveSlots) put(t eval.Token, cell Cell, hint, room int) bool {
	if j := s.find(t, hint); j >= 0 {
		s.slot(j).cell = cell
		return false
	}
	if len(s.more) == cap(s.more) {
		s.more = slices.Grow(s.more, room)
	}
	s.more = append(s.more, slot{t, cell})
	switch n := s.len(); {
	case s.at != nil:
		s.at[t] = int32(n - 1)
	case n > scanSlots:
		s.at = make(map[eval.Token]int32, n)
		for j := 0; j < n; j++ {
			s.at[s.slot(j).tok] = int32(j)
		}
	}
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
			cells[i] = s.slot(j).cell
			hits++
		}
	}
	c.hits += int64(hits)
	c.misses += int64(len(tokens) - hits)
	return hits
}

// PutCurve implements CacheStore.
func (c *Cache) PutCurve(curve string, tokens []eval.Token, cells []Cell) {
	if len(tokens) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.curves[curve]
	i := 0
	if !ok {
		s = curveSlots{key: curve, first: slot{tokens[0], cells[0]}}
		c.cells++
		i++
	}
	for ; i < len(tokens); i++ {
		if s.put(tokens[i], cells[i], i, len(tokens)-i) {
			c.cells++
		}
	}
	c.curves[s.key] = s
}

// Get returns the cell cached under a full key (Scenario.Key), counting a
// hit or miss: the one-cell GetCurve, for callers that hold a joined key.
func (c *Cache) Get(key string) (Cell, bool) {
	var buf [256]byte
	curve, t, split := eval.SplitKey(buf[:0], key)
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		cell Cell
		ok   bool
	)
	if !split {
		cell, ok = c.loose[key]
	} else if s, has := c.curves[string(curve)]; has {
		if j := s.find(t, 0); j >= 0 {
			cell, ok = s.slot(j).cell, true
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return cell, ok
}

// Put stores a cell under a full key: the one-cell PutCurve.
func (c *Cache) Put(key string, cell Cell) {
	var buf [256]byte
	curve, t, split := eval.SplitKey(buf[:0], key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !split {
		if c.loose == nil {
			c.loose = make(map[string]Cell)
		}
		if _, ok := c.loose[key]; !ok {
			c.cells++
		}
		c.loose[key] = cell
		return
	}
	s, ok := c.curves[string(curve)]
	if !ok {
		s = curveSlots{key: string(curve), first: slot{t, cell}}
		c.cells++
	} else if s.put(t, cell, 0, 1) {
		c.cells++
	}
	c.curves[s.key] = s
}

// Range calls fn for every cached cell under its full key until fn
// returns false, matching store.Store.Range: the cells are snapshotted
// (and their keys joined) under the lock and fn runs with the lock
// released, so callbacks may re-enter the cache and concurrent Puts
// never block behind a slow consumer. Iteration order is unspecified.
// Both in-memory caches and persistent stores therefore satisfy
// calib.Source.
func (c *Cache) Range(fn func(key string, cell Cell) bool) {
	type kv struct {
		key  string
		cell Cell
	}
	c.mu.Lock()
	snap := make([]kv, 0, c.cells)
	var buf []byte
	for _, s := range c.curves {
		for j := 0; j < s.len(); j++ {
			sl := s.slot(j)
			buf = eval.AppendJoinKey(buf[:0], s.key, sl.tok)
			snap = append(snap, kv{string(buf), sl.cell})
		}
	}
	for k, v := range c.loose {
		snap = append(snap, kv{k, v})
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

// Collect implements obs.Collector: the hit, miss and live-cell series
// every result cache exports (store.Store emits the same three).
func (c *Cache) Collect(emit func(obs.Sample)) {
	c.mu.Lock()
	hits, misses, cells := c.hits, c.misses, c.cells
	c.mu.Unlock()
	emit(obs.Sample{Name: "sweep_cache_hits_total", Kind: obs.KindCounter, Value: float64(hits)})
	emit(obs.Sample{Name: "sweep_cache_misses_total", Kind: obs.KindCounter, Value: float64(misses)})
	emit(obs.Sample{Name: "sweep_cache_cells", Kind: obs.KindGauge, Value: float64(cells)})
}
