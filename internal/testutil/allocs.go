package testutil

import "testing"

// AllocBudget fails the test if f allocates more than budget times per
// call in steady state: f runs 100 times first so that free lists and
// pools are warm, then testing.AllocsPerRun averages 2 000 calls. The
// test is skipped under -race, where the detector allocates on its own
// and makes sync.Pool drop items at random.
func AllocBudget(t *testing.T, what string, budget float64, f func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	for i := 0; i < 100; i++ {
		f()
	}
	if got := testing.AllocsPerRun(2000, f); got > budget {
		t.Fatalf("%s: %v allocs per call, budget %v", what, got, budget)
	}
}
