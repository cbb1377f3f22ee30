// Package traffic generates the open-loop workloads assumed by the paper's
// model: Poisson message arrivals at every processing element with uniformly
// random destinations (assumption (1) in §2). Additional destination
// patterns (hotspot, bit-complement, transpose) are provided for studies
// beyond the paper's evaluation.
//
// All randomness is derived from explicit seeds via a splitmix64 generator,
// so simulations are bit-reproducible and per-source streams are
// statistically independent without sharing state.
package traffic

import (
	"fmt"
	"math"
)

// splitmix64 advances the classic splitmix64 state and returns the next
// 64-bit output. It is the seeding/stream-splitting primitive for the whole
// simulator: tiny, fast, and passes BigCrush when used as a seeder.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small xoshiro256**-based generator with explicit state, used
// instead of math/rand so that streams can be split deterministically and
// cheaply per source.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent streams.
func NewRNG(seed uint64) *RNG {
	var r RNG
	r.Seed(seed)
	return &r
}

// Seed reseeds r in place, to the state NewRNG(seed) starts from.
func (r *RNG) Seed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// SplitInto derives a new independent generator from r, keyed by id, into
// caller-owned storage (so a slab of per-source streams needs no
// per-stream allocation). The parent stream is not consumed.
func (r *RNG) SplitInto(dst *RNG, id uint64) {
	st := r.s[0] ^ (id+1)*0xd1342543de82ef95
	dst.Seed(splitmix64(&st))
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next raw 64-bit value (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("traffic: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for n << 2^64
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("traffic: Exp with rate <= 0")
	}
	u := r.Float64()
	// 1-u is in (0,1], avoiding log(0).
	return -math.Log(1-u) / rate
}

// Normal returns a standard normal variate (Box–Muller). Each call
// consumes exactly two uniforms, keeping streams reproducible.
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	// 1-u1 is in (0,1], avoiding log(0).
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// Gamma returns a Gamma(shape, 1) variate via Marsaglia–Tsang squeeze
// rejection, with the standard U^{1/k} boost for shape < 1. Panics if
// shape <= 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 || math.IsNaN(shape) {
		panic("traffic: Gamma with shape <= 0")
	}
	if shape < 1 {
		u := 1 - r.Float64() // (0,1]
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Source is an open-loop arrival process for one processing element: a
// monotone stream of arrival times in cycles. PoissonSource is the
// paper's workload; internal/workload builds the bursty and trace-replay
// variants behind the same interface.
type Source interface {
	// Peek returns the time of the next arrival without consuming it
	// (+Inf when the stream is exhausted or silent).
	Peek() float64
	// PopBefore consumes and returns the next arrival time if it is
	// strictly before limit; otherwise (0, false). Repeated calls drain
	// all arrivals in [0, limit).
	PopBefore(limit float64) (float64, bool)
}

// DestSource is a Source whose arrivals carry their own destinations
// (trace replay): LastDest reports the destination of the arrival most
// recently returned by PopBefore.
type DestSource interface {
	Source
	LastDest() int
}

// PoissonSource produces a stream of arrival times for one processing
// element, as a continuous-time Poisson process with the configured rate in
// messages per cycle.
type PoissonSource struct {
	rng  *RNG
	rate float64
	next float64
}

// Init sets s up, in caller-owned storage (an element of a per-network
// slab), as a source with the given arrival rate (messages/cycle) drawing
// from rng: it overwrites s and draws the first arrival. A rate of 0
// yields a source that never fires; a negative or NaN rate is an error
// (it would otherwise take down a whole sweepd shard on a malformed
// remote spec).
func (s *PoissonSource) Init(rate float64, rng *RNG) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 1) {
		return fmt.Errorf("traffic: arrival rate must be finite and non-negative, got %v", rate)
	}
	*s = PoissonSource{rng: rng, rate: rate, next: math.Inf(1)}
	if rate > 0 {
		s.next = rng.Exp(rate)
	}
	return nil
}

// Peek returns the time of the next arrival without consuming it.
func (s *PoissonSource) Peek() float64 { return s.next }

// PopBefore consumes and returns the next arrival time if it is strictly
// before limit; otherwise it returns (0, false). Repeated calls drain all
// arrivals in [0, limit).
func (s *PoissonSource) PopBefore(limit float64) (float64, bool) {
	if s.next >= limit {
		return 0, false
	}
	t := s.next
	s.next += s.rng.Exp(s.rate)
	return t, true
}
