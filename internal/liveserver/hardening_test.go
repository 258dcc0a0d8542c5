package liveserver

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/preemptible"
)

// TestIdleTimeoutReapsHalfOpenConn: a connection that goes silent with
// nothing in flight is closed after IdleTimeout — the half-open client
// no longer pins a goroutine and an fd forever — and the reap is
// counted. The leak guard proves the handler and reader goroutines
// actually exited.
func TestIdleTimeoutReapsHalfOpenConn(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, addr := startServer(t, Config{IdleTimeout: 80 * time.Millisecond})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	// Go half-open: send nothing more, read until the server hangs up.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if _, err := io.ReadAll(c.conn); err != nil {
		t.Fatalf("expected clean EOF from the idle reap, got %v", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("idle reap took %v, want ~IdleTimeout", waited)
	}
	if m := s.MetricsV2(); m.IdleClosed != 1 {
		t.Fatalf("IdleClosed = %d, want 1", m.IdleClosed)
	}
}

// TestIdleTimeoutSparesInflightRequest: the idle clock must not tick
// while a request is executing — a client silently waiting on a slow
// request is not half-open. The in-flight GET is pinned mid-execution
// by holding its shard's store lock for several idle periods.
func TestIdleTimeoutSparesInflightRequest(t *testing.T) {
	const idle = 60 * time.Millisecond
	s, addr := startServer(t, Config{IdleTimeout: idle})
	c := dial(t, addr)
	if got := c.roundTrip(t, "SET k v"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}

	release := holdStoreLock(s, 0)
	if _, err := c.conn.Write([]byte("GET k\n")); err != nil {
		release()
		t.Fatal(err)
	}
	// Let the GET reach the store lock, then sit well past several idle
	// periods with the connection quiet in both directions.
	time.Sleep(5 * idle)
	release()

	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if !c.r.Scan() {
		t.Fatalf("connection was reaped while a request was executing: %v", c.r.Err())
	}
	if got := c.r.Text(); got != "VALUE v" {
		t.Fatalf("GET → %q, want VALUE v", got)
	}
	if m := s.MetricsV2(); m.IdleClosed != 0 {
		t.Fatalf("IdleClosed = %d, want 0 while a request was in flight", m.IdleClosed)
	}
}

// TestIdleTimeoutResetByTraffic: steady requests spaced under the idle
// timeout keep the connection alive indefinitely.
func TestIdleTimeoutResetByTraffic(t *testing.T) {
	s, addr := startServer(t, Config{IdleTimeout: 100 * time.Millisecond})
	c := dial(t, addr)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := c.roundTrip(t, "PING"); got != "PONG" {
			t.Fatalf("PING → %q", got)
		}
		time.Sleep(40 * time.Millisecond)
	}
	if m := s.MetricsV2(); m.IdleClosed != 0 {
		t.Fatalf("IdleClosed = %d, want 0 under steady traffic", m.IdleClosed)
	}
}

// TestWriteTimeoutClosesStuckClient: a client that stops draining
// responses (shrunken receive window, then silence) blocks the
// server's response write; WriteTimeout must fail the write and close
// the connection instead of leaving the handler goroutine stuck in a
// send forever.
func TestWriteTimeoutClosesStuckClient(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, addr := startServer(t, Config{WriteTimeout: 150 * time.Millisecond})

	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// Shrink the receive window before any response is in flight so the
	// server's writes hit backpressure quickly.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(2048) //nolint:errcheck
	}

	// One fat value, then a pipeline of GETs whose responses are never
	// read: the responses overrun the client's window and the server's
	// send buffer, and the handler blocks in Flush.
	value := strings.Repeat("x", 60<<10) // store values cap at 64 KiB
	if _, err := conn.Write([]byte("SET big " + value + " A0\n")); err != nil {
		t.Fatal(err)
	}
	rbuf := make([]byte, 3)
	if _, err := io.ReadFull(conn, rbuf); err != nil || string(rbuf) != "OK\n" {
		t.Fatalf("SET response = %q, %v", rbuf, err)
	}
	req := strings.Repeat("GET big\n", 300)                // ~18 MB of responses, far past any buffer
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	conn.Write([]byte(req))                                //nolint:errcheck

	// Without reading a byte, the server must give up within
	// WriteTimeout and count it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := s.MetricsV2(); m.WriteTimeouts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never timed out the stuck response write")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownLeaksNothing wires the goroutine-leak guard into the
// graceful-drain path: Serve, traffic, Shutdown — every reader,
// handler, and shard goroutine must be gone afterwards.
func TestShutdownLeaksNothing(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, addr := startServer(t, Config{IdleTimeout: time.Second})
	c := dial(t, addr)
	if got := c.roundTrip(t, "SET k v"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.roundTrip(t, "GET k"); got != "VALUE v" {
		t.Fatalf("GET → %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestCloseRacingServe: the `go s.Serve(ln); ...; s.Close()` pattern
// every caller uses must not leak the listener when Close (or Shutdown)
// wins the race — it cannot close a listener Serve has not recorded
// yet, so Serve itself must notice the server is closed, close ln and
// return nil instead of blocking in Accept forever.
func TestCloseRacingServe(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for i := 0; i < 20; i++ {
		s := New(rt, Config{Workers: 1})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve(ln) }()
		if i%2 == 0 {
			s.Close()
		} else if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("round %d: Shutdown: %v", i, err)
		}
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("round %d: Serve returned %v, want nil after Close", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: Serve still blocked in Accept after Close: the listener leaked", i)
		}
		if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
			conn.Close()
			t.Fatalf("round %d: listener still accepting after Close", i)
		}
	}
}
