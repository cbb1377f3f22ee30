package sweep

import (
	"sync"

	"repro/internal/eval"
	"repro/internal/obs"
)

// Cell is the cached outcome of one scenario: the merged Point of every
// backend, independent of the scenario's position in a particular sweep.
type Cell = eval.Point

// CacheStore is the result-cache contract a Runner consults: Get the
// cell stored under a scenario key, Put a freshly computed one.
// Implementations must be safe for concurrent use; both methods may be
// called from every worker of a pool. Cache is the in-memory
// implementation; store.Store (internal/store) persists cells across
// process restarts behind the same interface.
type CacheStore interface {
	Get(key string) (Cell, bool)
	Put(key string, cell Cell)
}

// Cache is a concurrency-safe in-memory result cache keyed by
// Scenario.Key. A cache can be shared across Runners and specs: any cell
// of an overlapping grid is computed once per process, by this process or
// by a fleet. A runner with a custom backend list (WithBackends) keeps its
// cells apart under a prefix naming the list — see cacheSalt — which
// assumes custom backends with equal names are equivalently configured.
type Cache struct {
	mu     sync.Mutex
	cells  map[string]Cell
	hits   int64
	misses int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{cells: make(map[string]Cell)}
}

// Get returns the cached cell for key, counting a hit or miss.
func (c *Cache) Get(key string) (Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.cells[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return cell, ok
}

// Put stores a cell under key.
func (c *Cache) Put(key string, cell Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[key] = cell
}

// Range calls fn for every cached cell until fn returns false, matching
// store.Store.Range: the cells are snapshotted under the lock and fn
// runs with the lock released, so callbacks may re-enter the cache and
// concurrent Puts never block behind a slow consumer. Iteration order
// is unspecified. Both in-memory caches and persistent stores therefore
// satisfy calib.Source.
func (c *Cache) Range(fn func(key string, cell Cell) bool) {
	type kv struct {
		key  string
		cell Cell
	}
	c.mu.Lock()
	snap := make([]kv, 0, len(c.cells))
	for k, v := range c.cells {
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
	return len(c.cells)
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
	hits, misses, cells := c.hits, c.misses, len(c.cells)
	c.mu.Unlock()
	emit(obs.Sample{Name: "sweep_cache_hits_total", Kind: obs.KindCounter, Value: float64(hits)})
	emit(obs.Sample{Name: "sweep_cache_misses_total", Kind: obs.KindCounter, Value: float64(misses)})
	emit(obs.Sample{Name: "sweep_cache_cells", Kind: obs.KindGauge, Value: float64(cells)})
}
