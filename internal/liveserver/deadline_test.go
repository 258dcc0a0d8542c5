package liveserver

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/preemptible"
)

// dMicros renders a D token for an absolute deadline.
func dMicros(deadline time.Time) string {
	return fmt.Sprintf("D%d", deadline.UnixMicro())
}

// TestWireDeadlineTokens: well-formed tokens are accepted (and a
// generous deadline changes nothing), malformed and duplicate tokens
// are protocol errors, and an already-expired deadline answers
// "ERR deadline" without executing.
func TestWireDeadlineTokens(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)

	future := dMicros(time.Now().Add(time.Hour))
	if got := c.roundTrip(t, "PING "+future); got != "PONG" {
		t.Fatalf("PING with future deadline → %q", got)
	}
	if got := c.roundTrip(t, "SET k hello "+future+" A0"); got != "OK" {
		t.Fatalf("SET with tokens → %q", got)
	}
	if got := c.roundTrip(t, "GET k A1 "+future); got != "VALUE hello" {
		t.Fatalf("GET with tokens (either order) → %q", got)
	}

	for req, want := range map[string]string{
		"PING D-5":                       "ERR bad token D-5",
		"PING D0":                        "ERR bad token D0",
		"PING A-1":                       "ERR bad token A-1",
		"PING D99999999999999999999":     "ERR bad token D99999999999999999999",
		"PING D1 D2":                     "ERR duplicate token D1",
		"PING A1 A2":                     "ERR duplicate token A1",
		"GET k " + future + " " + future: "ERR duplicate token " + future,
	} {
		if got := c.roundTrip(t, req); got != want {
			t.Fatalf("%q → %q, want %q", req, got, want)
		}
	}

	// D1 = 1µs past the epoch: expired long ago. The request is admitted,
	// queued, and dropped at dequeue — never executed.
	if got := c.roundTrip(t, "SET k2 poison D1"); got != "ERR deadline" {
		t.Fatalf("expired SET → %q", got)
	}
	if got := c.roundTrip(t, "GET k2"); got != "NOT_FOUND" {
		t.Fatalf("doomed SET executed anyway: GET k2 → %q", got)
	}
}

// TestDoomedWorkShedAtDequeue: every request arriving past its deadline
// is shed at dequeue — zero worker time — and the server's per-class
// expiry counters agree exactly with the pool's (conservation).
func TestDoomedWorkShedAtDequeue(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)

	const doomed = 40
	past := dMicros(time.Now().Add(-time.Millisecond))
	for i := 0; i < doomed; i++ {
		if got := c.roundTrip(t, "GET k "+past); got != "ERR deadline" {
			t.Fatalf("doomed GET %d → %q, want ERR deadline", i, got)
		}
	}
	// ≥95% shed at dequeue is the acceptance floor; with deadlines
	// already past at submit it is exact.
	lc, _ := classTotals(s)
	if lc.ExpiredQueued != doomed {
		t.Fatalf("ExpiredQueued=%d, want %d (≥95%% floor is %d)", lc.ExpiredQueued, doomed, doomed*95/100)
	}
	if lc.ExpiredExecuting != 0 {
		t.Fatalf("ExpiredExecuting=%d, want 0 — doomed work must not reach a worker", lc.ExpiredExecuting)
	}
	ps := s.PoolStats().PerClass[preemptible.ClassLC]
	if ps.ExpiredQueued != lc.ExpiredQueued || ps.ExpiredExecuting != lc.ExpiredExecuting {
		t.Fatalf("server/pool expiry disagree: server %d/%d pool %d/%d",
			lc.ExpiredQueued, lc.ExpiredExecuting, ps.ExpiredQueued, ps.ExpiredExecuting)
	}
}

// TestDeadlineExpiresMidExecution: a long COMPRESS whose deadline
// passes mid-run unwinds at its next safepoint and answers
// "ERR deadline" (ExpiredExecuting), well before it could have
// finished.
func TestDeadlineExpiresMidExecution(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, Quantum: 500 * time.Microsecond})
	c := dial(t, addr)

	// 1024 KB ≈ 100ms+ of compression; the 15ms deadline passes while it
	// runs, and the per-kilobyte Checkpoint observes it.
	start := time.Now()
	got := c.roundTrip(t, "COMPRESS 1024 "+dMicros(start.Add(15*time.Millisecond)))
	elapsed := time.Since(start)
	if got != "ERR deadline" {
		t.Fatalf("mid-run expiry → %q", got)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("expiry unwind took %v — doomed work ran to completion?", elapsed)
	}
	if _, be := classTotals(s); be.ExpiredExecuting != 1 {
		t.Fatalf("ExpiredExecuting=%d, want 1", be.ExpiredExecuting)
	}
}

// TestNoExpiryInSteadyState: requests with comfortable deadlines under
// light load never expire — deadline propagation must cost nothing when
// nothing is wrong.
func TestNoExpiryInSteadyState(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 2})
	c := dial(t, addr)

	for i := 0; i < 50; i++ {
		d := dMicros(time.Now().Add(2 * time.Second))
		if got := c.roundTrip(t, fmt.Sprintf("SET k%d v%d %s", i, i, d)); got != "OK" {
			t.Fatalf("SET %d → %q", i, got)
		}
		if got := c.roundTrip(t, fmt.Sprintf("GET k%d %s", i, d)); !strings.HasPrefix(got, "VALUE") {
			t.Fatalf("GET %d → %q", i, got)
		}
	}
	st := s.PoolStats()
	if n := st.Expired(); n != 0 {
		t.Fatalf("steady state expired %d requests, want 0", n)
	}
}

// TestStatsReportsExpiryAndReattempts: the STATS2 document carries the
// expiry and reattempt fields.
func TestStatsReportsExpiryAndReattempts(t *testing.T) {
	_, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)

	if got := c.roundTrip(t, "GET k D1"); got != "ERR deadline" {
		t.Fatalf("doomed GET → %q", got)
	}
	if got := c.roundTrip(t, "PING A1"); got != "PONG" {
		t.Fatalf("PING A1 → %q", got)
	}
	m, err := DecodeMetricsV2(c.roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	lc, be := m.Totals["lc"], m.Totals["be"]
	if lc.ExpiredQueued != 1 || lc.ExpiredExecuting != 0 || lc.Reattempts != 1 {
		t.Fatalf("STATS2 lc expiry/reattempts wrong: %+v", lc)
	}
	if be.ExpiredQueued != 0 || be.ExpiredExecuting != 0 || be.Reattempts != 0 {
		t.Fatalf("STATS2 be expiry/reattempts wrong: %+v", be)
	}
}
