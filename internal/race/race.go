//go:build race

// Package race reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops a share of its Puts, so allocation budgets
// that rely on pooled scratch cannot be exact: tests relax them through
// this one constant instead of skipping (make allocs runs them without
// the detector, where they are exact).
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
