package sim

// Seed-derivation map. Every random stream in a run derives from
// Config.Seed through traffic.RNG.SplitInto with the salts below; this file is
// the single place those salts live, and TestSeedDerivationGolden pins the
// first values of every stream so a refactor cannot silently reshuffle
// them (which would break bit-compatibility with stored sweep results and
// make replica merging statistically unsound).
//
//	master            = traffic.NewRNG(cfg.Seed)
//	shuffle/arbiter   = master.SplitInto(_, streamShuffle)     salt 0xa11ce
//	destination for p = master.SplitInto(_, streamDest(p))     salt p + 1
//	arrivals for p    = master.SplitInto(_, streamArrival(p))  salt p + 1'000'003
//
// The destination and arrival salts differ by an accident of history (the
// Poisson sources were added later with their own offset). The offsets are
// kept as-is — changing either would alter every stored result — but they
// are only collision-free while the three salt ranges stay disjoint:
// streamShuffle (0xa11ce = 659'918) must not fall inside [1, nProc] or
// [1'000'003, 1'000'002+nProc], and the two per-processor ranges must not
// overlap each other. That holds for every nProc < 659'917; the paper's
// largest configuration is 1024 processors.
//
// Replicas use a separate axis: replica r of a run re-derives its own
// master seed with ReplicaSeed(cfg.Seed, r) and then applies the same map.

// streamShuffle salts the shared arbitration stream: request-order
// shuffling, RandomFixed channel choice, and free-link selection.
const streamShuffle uint64 = 0xa11ce

// streamDest salts processor p's destination-pattern stream.
func streamDest(p int) uint64 { return uint64(p) + 1 }

// streamArrival salts processor p's Poisson arrival stream.
func streamArrival(p int) uint64 { return uint64(p) + 1_000_003 }

// ReplicaSeed derives the master seed of replica r from a run's base seed.
// Replica 0 is the base run itself — ReplicaSeed(seed, 0) == seed, so a
// single-replica Run is bit-identical to the pre-replica engine. Higher
// replicas pass the seed through a splitmix64-style finalizer keyed by r,
// which scatters them away from the small additive seed lattices used
// elsewhere in the repo (eval derives per-load-point seeds as
// base + index*7919; a linear replica offset could collide with that).
func ReplicaSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	x := seed + uint64(r)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
