//go:build !race

package testutil

// RaceEnabled reports whether the test binary was built with -race.
const RaceEnabled = false
