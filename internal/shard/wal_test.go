package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wal"
)

// TestDurableSetSurvivesRestart is the shard-level durability claim:
// every DurableSet acknowledged before a supervised restart is
// readable after the rebuild, recovered from snapshot+log, and the
// WAL counters accumulate across generations like every other shard
// counter.
func TestDurableSetSurvivesRestart(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 2, Config{Workers: 1, WALDir: t.TempDir(), SnapshotEvery: 8},
		SuperviseConfig{Disabled: true, RestartDrain: 100 * time.Millisecond})
	defer g.Close()
	s := g.Shard(0)

	const n = 20
	key := func(i int) []byte { return []byte(fmt.Sprintf("dk-%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("dv-%03d", i)) }
	for i := 0; i < n; i++ {
		ok, err := s.DurableSet(key(i), val(i))
		if !ok || err != nil {
			t.Fatalf("DurableSet %d = (%v, %v)", i, ok, err)
		}
	}
	pre := s.WALStats()
	if pre.Appends != n {
		t.Fatalf("Appends = %d, want %d", pre.Appends, n)
	}
	if pre.Fsyncs == 0 {
		t.Fatal("Fsyncs = 0 after acknowledged group-commit writes")
	}

	g.RestartShard(0)
	waitFor(t, 2*time.Second, func() bool { return s.Health() == Healthy && s.Generation() == 1 },
		"restart did not complete")

	for i := 0; i < n; i++ {
		r := s.StoreGet(key(i))
		if !r.Hit || !bytes.Equal(r.Value, val(i)) {
			t.Fatalf("acknowledged write %q lost in restart (hit=%v value=%q)", key(i), r.Hit, r.Value)
		}
	}
	post := s.WALStats()
	// Every key is distinct, so snapshot entries + tail replay must
	// restore exactly the acknowledged set.
	if post.RecoveredRecords != n {
		t.Fatalf("RecoveredRecords = %d, want %d", post.RecoveredRecords, n)
	}
	if post.Appends != pre.Appends {
		t.Fatalf("Appends drifted across restart: %d → %d", pre.Appends, post.Appends)
	}
	if post.Recovery <= 0 {
		t.Fatal("Recovery duration not recorded")
	}

	// The rebuilt generation keeps logging: new writes survive another
	// restart together with the old ones.
	if ok, err := s.DurableSet([]byte("post-restart"), []byte("still-durable")); !ok || err != nil {
		t.Fatalf("post-restart DurableSet = (%v, %v)", ok, err)
	}
	g.RestartShard(0)
	waitFor(t, 2*time.Second, func() bool { return s.Health() == Healthy && s.Generation() == 2 },
		"second restart did not complete")
	if r := s.StoreGet([]byte("post-restart")); !r.Hit || string(r.Value) != "still-durable" {
		t.Fatalf("second-generation write lost: hit=%v value=%q", r.Hit, r.Value)
	}
	if r := s.StoreGet(key(0)); !r.Hit {
		t.Fatal("first-generation write lost after second restart")
	}
}

// TestNoWALRestartsEmpty pins the pre-durability behavior: without
// WALDir a rebuild still restarts with an empty partition.
func TestNoWALRestartsEmpty(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 1, Config{Workers: 1},
		SuperviseConfig{Disabled: true, RestartDrain: 100 * time.Millisecond})
	defer g.Close()
	s := g.Shard(0)
	if ok, err := s.DurableSet([]byte("cache-key"), []byte("cache-val")); !ok || err != nil {
		t.Fatalf("DurableSet without WAL = (%v, %v)", ok, err)
	}
	if st := s.WALStats(); st != (wal.Stats{}) {
		t.Fatalf("WALStats non-zero without durability: %+v", st)
	}
	g.RestartShard(0)
	waitFor(t, 2*time.Second, func() bool { return s.Health() == Healthy && s.Generation() == 1 },
		"restart did not complete")
	if r := s.StoreGet([]byte("cache-key")); r.Hit {
		t.Fatal("WAL-less shard kept data across restart")
	}
}
