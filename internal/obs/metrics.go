package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a process-wide monotonic counter. Counters are cheap
// atomics; hot loops should still accumulate locally and Add once per
// run, which is what the sim engine does.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

var (
	regMu    sync.Mutex
	registry = make(map[string]*Counter)
)

// NewCounter registers (or returns the existing) counter under name.
// Names should follow Prometheus conventions and end in _total; the
// serve layer renders every registered counter on /metrics verbatim.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	if c, ok := registry[name]; ok {
		return c
	}
	c := &Counter{}
	registry[name] = c
	return c
}

// Counters returns a point-in-time snapshot of every registered
// counter, sorted iteration being left to the caller.
func Counters() map[string]int64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]int64, len(registry))
	for name, c := range registry {
		out[name] = c.v.Load()
	}
	return out
}
