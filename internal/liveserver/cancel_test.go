package liveserver

import (
	"bufio"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// cancelCounts reads the disconnect-cancellation split from the pools
// (the shards' admission counters carry only the sum).
func (s *Server) cancelCounts() (queued, executing uint64) {
	ps := s.PoolStats()
	return ps.CancelledQueued, ps.CancelledExecuting
}

func TestDisconnectCancelsExecuting(t *testing.T) {
	// A client that hangs up mid-COMPRESS must not keep burning the
	// worker: the request is cancelled at its next safepoint (the
	// per-kilobyte Checkpoint) and the worker is immediately available
	// to other clients.
	s, addr := startServer(t, Config{Workers: 1, Quantum: 200 * time.Microsecond})
	c := dial(t, addr)
	if _, err := c.conn.Write([]byte("COMPRESS 1024\n")); err != nil {
		t.Fatal(err)
	}
	// Wait until the request is actually executing (picked up, not just
	// queued) before pulling the plug.
	waitFor(t, 2*time.Second, func() bool {
		return s.PoolStats().Submitted == 1 && s.group.Shard(0).Pool().QueueLen() == 0
	}, "compression to start executing")
	c.conn.Close()

	waitFor(t, 5*time.Second, func() bool {
		_, e := s.cancelCounts()
		return e == 1
	}, "executing request to cancel at its next safepoint")

	ps := s.PoolStats()
	if ps.CancelledExecuting != 1 || ps.CancelledQueued != 0 || ps.Completed != 0 {
		t.Fatalf("pool stats after executing-cancel: %+v", ps)
	}

	// The worker must be free now: a fresh client's PING completes fast.
	c2 := dial(t, addr)
	start := time.Now()
	if got := c2.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after cancel → %q", got)
	}
	if lat := time.Since(start); lat > time.Second {
		t.Fatalf("PING took %v: worker still occupied by cancelled work", lat)
	}
}

func TestDisconnectEvictsQueued(t *testing.T) {
	// A request still queued when its client disconnects must never
	// occupy the worker: it is evicted in place while the worker is
	// still busy, provably before any worker could have reached it.
	s, addr := startServer(t, Config{Workers: 1})

	// Wedge the single worker deterministically: hold the store lock so
	// a GET blocks inside its critical section (no safepoints there).
	release := holdStoreLock(s, 0)
	wedged := dial(t, addr)
	if _, err := wedged.conn.Write([]byte("GET k\n")); err != nil {
		release()
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return s.PoolStats().Submitted == 1 && s.group.Shard(0).Pool().QueueLen() == 0
	}, "wedge GET to occupy the worker")

	// Queue a second request behind the wedge, then disconnect its
	// client.
	queued := dial(t, addr)
	if _, err := queued.conn.Write([]byte("PING\n")); err != nil {
		release()
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return s.group.Shard(0).Pool().QueueLen() == 1 },
		"PING to queue behind the wedge")
	queued.conn.Close()

	// The eviction must complete while the worker is still wedged: done
	// fires at Cancel time, not at pickup time.
	waitFor(t, 2*time.Second, func() bool {
		q, _ := s.cancelCounts()
		return q == 1
	}, "queued request to evict on disconnect")
	if ps := s.PoolStats(); ps.Completed != 0 {
		t.Fatalf("something completed while the worker was wedged: %+v", ps)
	}
	if n := s.group.Shard(0).Pool().QueueLen(); n != 0 {
		t.Fatalf("QueueLen %d after eviction, want 0", n)
	}

	// Release the wedge: the original GET completes normally and is the
	// only task that ever ran.
	release()
	if !wedged.r.Scan() {
		t.Fatalf("no response to wedged GET: %v", wedged.r.Err())
	}
	if got := wedged.r.Text(); got != "NOT_FOUND" {
		t.Fatalf("wedged GET → %q", got)
	}
	ps := s.PoolStats()
	if ps.Completed != 1 || ps.CancelledQueued != 1 || ps.CancelledExecuting != 0 {
		t.Fatalf("final pool stats: %+v", ps)
	}
	q, e := s.cancelCounts()
	if q != 1 || e != 0 {
		t.Fatalf("overload counters: queued=%d executing=%d", q, e)
	}
}

func TestDisconnectConservation(t *testing.T) {
	// Seeded chaos: many clients, about half hang up without reading
	// their response. Whatever the interleaving, every submission lands
	// in exactly one terminal bucket and the server's overload counters
	// mirror the pool's cancellation counters exactly.
	s, addr := startServer(t, Config{Workers: 2, Quantum: 200 * time.Microsecond})
	rng := rand.New(rand.NewSource(20240805))

	type plan struct {
		req        string
		disconnect bool
		delay      time.Duration
	}
	var plans []plan
	for i := 0; i < 40; i++ {
		req := "PING"
		switch rng.Intn(4) {
		case 0:
			req = "SET k v"
		case 1:
			req = "GET k"
		case 2:
			req = "COMPRESS 64"
		}
		plans = append(plans, plan{
			req:        req,
			disconnect: rng.Intn(2) == 0,
			delay:      time.Duration(rng.Intn(3)) * time.Millisecond,
		})
	}

	var wg sync.WaitGroup
	for _, pl := range plans {
		wg.Add(1)
		go func(pl plan) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if _, err := conn.Write([]byte(pl.req + "\n")); err != nil {
				return
			}
			if pl.disconnect {
				time.Sleep(pl.delay)
				return // deferred Close: hang up without reading
			}
			sc := bufio.NewScanner(conn)
			sc.Scan()
		}(pl)
	}
	wg.Wait()

	// Drain: every admitted request must reach a terminal state (the
	// done callback decrements inflight on all paths).
	waitFor(t, 10*time.Second, func() bool { return s.inflightTotal() == 0 },
		"all in-flight requests to settle")

	ps := s.PoolStats()
	if ps.Submitted != ps.Completed+ps.Shed+ps.CancelledQueued+ps.CancelledExecuting {
		t.Fatalf("conservation broken: %+v", ps)
	}
	q, e := s.cancelCounts()
	if q != ps.CancelledQueued || e != ps.CancelledExecuting {
		t.Fatalf("server counters (queued=%d executing=%d) disagree with pool stats %+v",
			q, e, ps)
	}
}
