package tailclient

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// startRawServer runs handler(i, conn) in its own goroutine for the
// i-th accepted connection (0-based), giving tests byte-level control
// over the response stream — truncation, resets, stalls.
func startRawServer(t *testing.T, handler func(i int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(i int, conn net.Conn) {
				defer conn.Close()
				handler(i, conn)
			}(i, conn)
		}
	}()
	return ln.Addr().String()
}

// readLine consumes one request line (with its metadata tokens).
func readLine(conn net.Conn) (string, bool) {
	s, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", false
	}
	return strings.TrimRight(s, "\n"), true
}

// TestTruncatedResponseIsNotSuccess is the regression for the pooling
// bug: a server that closes mid-response used to yield the truncated
// prefix as a *successful* reply (bufio.Scanner returns the final
// unterminated token as valid text) and the dead connection went back
// to the pool. Now the attempt errors, the conn is evicted, and the
// idempotent op is re-sent on a fresh connection.
func TestTruncatedResponseIsNotSuccess(t *testing.T) {
	addr := startRawServer(t, func(i int, conn net.Conn) {
		if _, ok := readLine(conn); !ok {
			return
		}
		if i == 0 {
			conn.Write([]byte("VALUE truncated-garbage")) // no newline, then close
			return
		}
		conn.Write([]byte("VALUE ok\n"))
	})
	c := New(Config{Addr: addr, RetryBase: time.Millisecond, Seed: 1})
	defer c.Close()
	res, err := c.Do("GET k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OK || res.Resp != "VALUE ok" {
		t.Fatalf("res = %+v, want OK / VALUE ok from the retried attempt", res)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (the torn attempt re-sent once)", res.Retries)
	}
	if st := c.Stats(); st.ConnsEvicted == 0 {
		t.Fatalf("stats = %+v, want the torn conn evicted", st)
	}
}

// TestMidResponseResetNotResent: a mid-response RST on a non-idempotent
// op settles Errored — the server may have executed the SET, so the
// client must not re-send it — and the broken conn never re-enters the
// pool (the follow-up op succeeds on a fresh connection).
func TestMidResponseResetNotResent(t *testing.T) {
	var requests atomic.Int64
	addr := startRawServer(t, func(i int, conn net.Conn) {
		if _, ok := readLine(conn); !ok {
			return
		}
		requests.Add(1)
		if i == 0 {
			conn.Write([]byte("ST")) // partial response...
			time.Sleep(20 * time.Millisecond)
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0) // ...then RST mid-line
			}
			return
		}
		conn.Write([]byte("PONG\n"))
	})
	c := New(Config{Addr: addr, RetryBase: time.Millisecond, Seed: 2})
	defer c.Close()
	res, err := c.Do("SET k v")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Errored {
		t.Fatalf("res = %+v, want Errored (consumed bytes + non-idempotent)", res)
	}
	if got := requests.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 — the broken SET was re-sent", got)
	}
	res2, err := c.Do("PING")
	if err != nil || res2.Outcome != OK || res2.Resp != "PONG" {
		t.Fatalf("follow-up res=%+v err=%v, want OK/PONG on a fresh conn", res2, err)
	}
	st := c.Stats()
	if st.Errored != 1 || st.ConnsEvicted == 0 {
		t.Fatalf("stats = %+v, want Errored=1 and the reset conn evicted", st)
	}
}

// TestStalledConnCannotOutliveOpDeadline: against a server that accepts
// and then never answers, the per-attempt wire deadline (derived from
// the op deadline) fails the attempt instead of pinning it; the op
// settles Expired about when its deadline passes, not minutes later.
func TestStalledConnCannotOutliveOpDeadline(t *testing.T) {
	addr := startRawServer(t, func(i int, conn net.Conn) {
		readLine(conn)
		io.Copy(io.Discard, conn) // stall: never answer; returns when the client hangs up
	})
	c := New(Config{
		Addr: addr, OpDeadline: 100 * time.Millisecond,
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond, Seed: 3,
	})
	defer c.Close()
	start := time.Now()
	res, err := c.Do("GET k")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Expired {
		t.Fatalf("res = %+v, want Expired", res)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("op took %v against a stalled server; wire deadline did not bound the attempt", elapsed)
	}
	if st := c.Stats(); st.ConnsEvicted == 0 {
		t.Fatalf("stats = %+v, want stalled conns evicted", st)
	}
}

// TestIOTimeoutBoundsAttemptWithoutOpDeadline: IOTimeout alone (no op
// deadline) still bounds each attempt on a stalled conn.
func TestIOTimeoutBoundsAttemptWithoutOpDeadline(t *testing.T) {
	addr := startRawServer(t, func(i int, conn net.Conn) {
		readLine(conn)
		io.Copy(io.Discard, conn)
	})
	c := New(Config{
		Addr: addr, IOTimeout: 30 * time.Millisecond, RetryMax: 1,
		RetryBase: time.Millisecond, RetryCap: time.Millisecond, Seed: 4,
	})
	defer c.Close()
	start := time.Now()
	res, err := c.Do("GET k")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Rejected {
		t.Fatalf("res = %+v, want Rejected after budgeted attempts timed out", res)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("op took %v; IOTimeout did not bound the stalled attempts", elapsed)
	}
}

// TestPoisonedPooledConnSkipped: a connection whose reader holds unread
// bytes (a desynced extra response) is evicted at checkout instead of
// serving the next op a stale answer.
func TestPoisonedPooledConnSkipped(t *testing.T) {
	addr := startRawServer(t, func(i int, conn net.Conn) {
		for {
			if _, ok := readLine(conn); !ok {
				return
			}
			if i == 0 {
				conn.Write([]byte("PONG\nSTALE-EXTRA\n")) // one request, two answers
			} else {
				conn.Write([]byte("PONG\n"))
			}
		}
	})
	c := New(Config{Addr: addr, Seed: 5})
	defer c.Close()
	res, err := c.Do("PING")
	if err != nil || res.Outcome != OK || res.Resp != "PONG" {
		t.Fatalf("first op res=%+v err=%v", res, err)
	}
	// The pooled conn now has "STALE-EXTRA\n" buffered. The next op must
	// not read it.
	res2, err := c.Do("PING")
	if err != nil || res2.Outcome != OK {
		t.Fatalf("second op res=%+v err=%v", res2, err)
	}
	if res2.Resp != "PONG" {
		t.Fatalf("second op read %q — a stale buffered response from a poisoned conn", res2.Resp)
	}
	if st := c.Stats(); st.ConnsEvicted != 1 {
		t.Fatalf("stats = %+v, want exactly the poisoned conn evicted", st)
	}
}

// TestCloseLeaksNothing wires the goroutine-leak guard into the Close
// path: after hedged traffic (attempt goroutines, pooled conns) and
// Close, every client goroutine must be gone.
func TestCloseLeaksNothing(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	addr := startLineServer(t, func(op string, attempt int) (time.Duration, string) {
		return 0, "PONG"
	})
	c := New(Config{Addr: addr, Hedge: true, HedgeMin: time.Millisecond, Seed: 8})
	for i := 0; i < 50; i++ {
		if res, err := c.Do("PING"); err != nil || res.Outcome != OK {
			t.Fatalf("op %d: res=%+v err=%v", i, res, err)
		}
	}
	c.Close()
}

// TestDefaultIdempotent pins the retry-safety table.
func TestDefaultIdempotent(t *testing.T) {
	for op, want := range map[string]bool{
		"GET k": true, "MGET a b c": true, "PING": true, "STATS": true, "STATS2": true,
		"SET k v": false, "COMPRESS 64": false, "BOGUS": false,
	} {
		if got := DefaultIdempotent(op); got != want {
			t.Fatalf("DefaultIdempotent(%q) = %v, want %v", op, got, want)
		}
	}
}

// TestCloseAbortsInlineAttempt: with hedging off the attempt runs on the
// caller's goroutine, blocked in a read nothing bounds — no I/O timeout,
// no deadline, a server that never answers. Close must still end the
// operation promptly, and as Aborted/ErrClosed: the read error Close
// causes is not a transport fault to retry.
func TestCloseAbortsInlineAttempt(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	got := make(chan struct{})
	addr := startRawServer(t, func(_ int, conn net.Conn) {
		if _, ok := readLine(conn); ok {
			close(got)
		}
		io.Copy(io.Discard, conn) //nolint:errcheck // silent until the client hangs up
	})
	c := New(Config{Addr: addr, Seed: 1})
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Do("SET k v")
		done <- outcome{res, err}
	}()
	<-got
	c.Close()
	select {
	case o := <-done:
		if o.err != ErrClosed || o.res.Outcome != Aborted || o.res.Attempts != 1 || o.res.Retries != 0 {
			t.Fatalf("Do = %+v, %v; want Aborted / ErrClosed after one attempt", o.res, o.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do still blocked 2s after Close")
	}
	if st := c.Stats(); st.Aborted != 1 || st.Retries != 0 || st.Errored != 0 {
		t.Fatalf("stats = %+v, want one aborted op and nothing retried", st)
	}
}
