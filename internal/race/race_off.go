//go:build !race

// Package race reports whether the binary was built with the race
// detector. Two kinds of check key off it. Allocation budgets skip under
// -race: the race runtime drops a random share of sync.Pool puts, so a
// pool-based budget cannot hold. Wall-clock shape gates are asserted only
// without it: race instrumentation slows the CPU side 5–20× and
// compresses every ratio between concurrent phases toward 1×.
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false
