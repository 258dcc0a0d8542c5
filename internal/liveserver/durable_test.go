package liveserver

import (
	"testing"

	"repro/internal/chaos"
)

// TestFailedLogNeverAppliesARefusedSet pins "log, then apply": once an
// fsync fails the log is fail-stop, and every later SET answers
// "ERR wal" — so none of them may reach the store. A GET of such a key
// must miss; a hit would serve a value whose writer was told the write
// failed (and a later snapshot could persist it).
func TestFailedLogNeverAppliesARefusedSet(t *testing.T) {
	fs := chaos.NewFS(nil, chaos.FSConfig{Seed: 1, SyncErrProb: 1})
	_, addr := startServer(t, Config{Shards: 1, Workers: 1, WALDir: t.TempDir(), WALFS: fs})
	c := dial(t, addr)
	if got := c.roundTrip(t, "SET k1 v1"); got != "ERR wal" {
		t.Fatalf("SET k1 on a failing fsync → %q, want ERR wal", got)
	}
	if n := fs.Counters().SyncErrs; n != 1 {
		t.Fatalf("injected fsync errors = %d, want 1", n)
	}
	if got := c.roundTrip(t, "SET k2 v2"); got != "ERR wal" {
		t.Fatalf("SET k2 after fail-stop → %q, want ERR wal", got)
	}
	if got := c.roundTrip(t, "GET k2"); got != "NOT_FOUND" {
		t.Fatalf("GET k2 → %q, want NOT_FOUND: a refused SET reached the store", got)
	}
}
