package eval

import (
	"sync"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/topology"
)

// The process's networks. The channel classes of the model and the
// wiring of the simulator depend on the topology instance alone — not on
// the message length, the load or the variant — and both are immutable
// and safe for concurrent use, so the process builds each once and every
// backend shares it: a fresh AnalyticBackend takes its curves' models as
// views of analyticNets' network, a fresh SimBackend simulates on
// simNets' topology. Only structure is shared; curve entries and their
// saturation searches stay per backend.
//
// The registries keep what they build for the life of the process.
// Simulator topologies are bounded by topology.MaxProcessors: at most 8
// fat-trees and 16 hypercubes, the largest about 0.5 MB. An analytic
// network is O(classes) — a few per level or dimension — so a shard's
// registry grows only with the distinct instances it is asked for.
var (
	analyticNets = registry[*analytic.Model]{build: func(t Topology) (*analytic.Model, error) {
		return t.NewModel(1, core.Options{}) // any length and variant: only the network is read
	}}
	simNets = registry[topology.Network]{build: func(t Topology) (topology.Network, error) { return t.NewNetwork() }}
)

// registry holds one build per instance. Concurrent first callers of an
// instance wait for one build while other instances build in parallel;
// a failed build is not kept, so the next caller builds again.
type registry[T any] struct {
	mu    sync.Mutex
	built map[Topology]*shared[T]
	build func(Topology) (T, error)
}

type shared[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the instance's build, building it on first use.
func (r *registry[T]) get(t Topology) (T, error) {
	r.mu.Lock()
	b := r.built[t]
	if b == nil {
		if r.built == nil {
			r.built = make(map[Topology]*shared[T])
		}
		b = new(shared[T])
		r.built[t] = b
	}
	r.mu.Unlock()
	b.once.Do(func() {
		if b.v, b.err = r.build(t); b.err != nil {
			r.mu.Lock()
			delete(r.built, t)
			r.mu.Unlock()
		}
	})
	return b.v, b.err
}
