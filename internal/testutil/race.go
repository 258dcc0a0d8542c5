//go:build race

package testutil

// RaceEnabled reports whether the test binary was built with -race.
// Allocation budgets skip under it: the detector's instrumentation
// allocates on its own and makes sync.Pool drop items at random.
const RaceEnabled = true
