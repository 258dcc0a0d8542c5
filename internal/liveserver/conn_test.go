package liveserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/preemptible"
)

// openConns counts the connections the server is serving.
func (s *Server) openConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// TestWriteTimeoutLeavesNothingBehind: a connection the server gives up
// on after a write timeout must take everything it started with it —
// while the server keeps serving, not only once Close tears the world
// down. (The two-goroutine handler left its reader parked on the
// hand-off channel, 64 KiB scanner buffer and all, until the server
// closed.)
func TestWriteTimeoutLeavesNothingBehind(t *testing.T) {
	s, addr := startServer(t, Config{WriteTimeout: 100 * time.Millisecond})
	value := strings.Repeat("x", 60<<10)
	warm := dial(t, addr)
	if got := warm.roundTrip(t, "SET big "+value+" A0"); got != "OK" {
		t.Fatalf("SET → %.20q", got)
	}
	if got := warm.roundTrip(t, "GET big"); len(got) != len("VALUE ")+len(value) {
		t.Fatalf("GET → %d bytes", len(got))
	}
	warm.conn.Close()
	waitFor(t, 2*time.Second, func() bool { return s.openConns() == 0 }, "the warm-up connection to end")
	baseline := runtime.NumGoroutine()

	const stuck = 5
	for i := 0; i < stuck; i++ {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(2048) //nolint:errcheck
		// ~18 MB of responses nobody reads: the server's write blocks and
		// times out with most of the pipeline still unread.
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		conn.Write([]byte(strings.Repeat("GET big\n", 300)))   //nolint:errcheck
	}
	waitFor(t, 10*time.Second, func() bool { return s.MetricsV2().WriteTimeouts >= stuck }, "every stuck write to time out")
	waitFor(t, 2*time.Second, func() bool { return s.openConns() == 0 }, "the server to drop the stuck connections")

	// Still serving — and nothing of the five connections is left.
	if got := dial(t, addr).roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after the timeouts → %q", got)
	}
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+1 }, // +1: the PING's connection
		fmt.Sprintf("goroutines to return to the baseline of %d", baseline))
}

// TestTornFinalLineIsNeverExecuted: bytes after the last newline when a
// connection ends are a line its client never finished sending; they
// must be dropped, not run. bufio.Scanner handed that tail to the
// handler at EOF, and — whenever the request then beat its own
// cancellation — a prefix of a value was stored that no client ever
// sent.
func TestTornFinalLineIsNeverExecuted(t *testing.T) {
	s, addr := startServer(t, Config{})
	reader := dial(t, addr)
	for i := 0; i < 300; i++ {
		full := fmt.Sprintf("full-value-%04d", i)
		w := dial(t, addr)
		if got := w.roundTrip(t, "SET k "+full); got != "OK" {
			t.Fatalf("SET → %q", got)
		}
		if _, err := w.conn.Write([]byte("SET k full-va")); err != nil {
			t.Fatal(err)
		}
		w.conn.Close()
		waitFor(t, 2*time.Second, func() bool { return s.openConns() == 1 }, "the writer's connection to end")
		if got := reader.roundTrip(t, "GET k"); got != "VALUE "+full {
			t.Fatalf("round %d: GET → %q after a torn SET: the unterminated tail was executed", i, got)
		}
	}
}

// countingListener counts the Write calls the server makes on the
// connections it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelineAnsweredInOrderWithFewWrites: requests that arrive together
// are answered in order and leave together — every complete line in the
// read buffer is handled before one write.
func TestPipelineAnsweredInOrderWithFewWrites(t *testing.T) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	s := New(rt, Config{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	go s.Serve(ln) //nolint:errcheck
	t.Cleanup(s.Close)

	const k = 64
	c := dial(t, ln.Addr().String())
	var batch strings.Builder
	for i := 0; i < k; i += 2 {
		fmt.Fprintf(&batch, "SET key%d value-%d\nGET key%d\n", i, i, i)
	}
	if _, err := c.conn.Write([]byte(batch.String())); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for i := 0; i < k; i += 2 {
		for _, want := range []string{"OK", fmt.Sprintf("VALUE value-%d", i)} {
			if !c.r.Scan() {
				t.Fatalf("reply for request pair %d missing: %v", i, c.r.Err())
			}
			if got := c.r.Text(); got != want {
				t.Fatalf("request pair %d: reply %q, want %q", i, got, want)
			}
		}
	}
	if w := ln.writes.Load(); w > k/4 {
		t.Fatalf("%d replies took %d writes: responses are not leaving in batches", k, w)
	}
}

// parkGET sends a GET that wedges inside the store lock and waits until
// it is executing and well past the watcher's grace, so the watcher — not
// the connection's loop — is the one reading the socket.
func parkGET(t *testing.T, s *Server, c *testClient) (release func()) {
	t.Helper()
	release = holdStoreLock(s, 0)
	if _, err := c.conn.Write([]byte("GET k\n")); err != nil {
		release()
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return s.PoolStats().Submitted >= 1 && s.group.Shard(0).Pool().QueueLen() == 0
	}, "the GET to reach the store lock")
	time.Sleep(20 * watchGrace)
	return release
}

// TestParkedRequestKeepsPipelinedRequests: requests that arrive while an
// earlier one is parked are read by its watcher; when the watcher is
// thrown out they must all still be there, and answered in order.
func TestParkedRequestKeepsPipelinedRequests(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1})
	c := dial(t, addr)
	if got := c.roundTrip(t, "SET k v"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	release := parkGET(t, s, c)
	for _, more := range []string{"PING\n", "GET k\nGET nope"} { // two reads for the watcher, the last one torn
		if _, err := c.conn.Write([]byte(more)); err != nil {
			release()
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	release()
	if _, err := c.conn.Write([]byte("\n")); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for i, want := range []string{"VALUE v", "PONG", "VALUE v", "NOT_FOUND"} {
		if !c.r.Scan() {
			t.Fatalf("reply %d missing: %v", i, c.r.Err())
		}
		if got := c.r.Text(); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
}

// TestParkedRequestCancelledOnDisconnect: a client that hangs up on a
// parked request cancels it where it stands — in the queue here, behind
// a wedged worker — and nothing it had pipelined behind it is executed.
func TestParkedRequestCancelledOnDisconnect(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1})
	release := parkGET(t, s, dial(t, addr))
	defer release()

	c := dial(t, addr)
	if _, err := c.conn.Write([]byte("GET k\nPING\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return s.group.Shard(0).Pool().QueueLen() == 1 }, "the second GET to queue")
	time.Sleep(20 * watchGrace)
	c.conn.Close()
	waitFor(t, 2*time.Second, func() bool {
		q, _ := s.cancelCounts()
		return q == 1
	}, "the queued GET to be evicted on disconnect")
	waitFor(t, 2*time.Second, func() bool { return s.openConns() == 1 }, "the connection to end")
	if ps := s.PoolStats(); ps.Submitted != 2 || ps.CancelledQueued != 1 || ps.CancelledExecuting != 0 {
		t.Fatalf("pool stats: %+v", ps)
	}
	if n := s.Requests.Ping.Load(); n != 0 {
		t.Fatalf("the PING pipelined behind the cancelled request was executed (%d)", n)
	}
}

// TestShutdownKicksIdleReaders: connections blocked in Read with nothing
// to do must not hold Shutdown until its deadline (nothing selects on
// s.done any more: Shutdown throws them out with a past read deadline),
// and one waiting on a request gets its reply first.
func TestShutdownKicksIdleReaders(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	s, addr := startServer(t, Config{Workers: 1})
	idle := []*testClient{dial(t, addr), dial(t, addr), dial(t, addr)}
	for _, c := range idle {
		if got := c.roundTrip(t, "PING"); got != "PONG" {
			t.Fatalf("PING → %q", got)
		}
	}
	busy := dial(t, addr)
	release := sync.OnceFunc(parkGET(t, s, busy))
	defer release() // a failed wait below must not leave Shutdown, and so the cleanup's Close, stuck

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- s.Shutdown(ctx) }()
	waitFor(t, 5*time.Second, func() bool { return s.openConns() == 1 }, "the idle connections to be dropped")
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v: it waited for its deadline", took)
	}
	busy.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if reply, err := io.ReadAll(busy.conn); err != nil || string(reply) != "NOT_FOUND\n" {
		t.Fatalf("the in-flight request's connection read %q, %v; want its reply, then EOF", reply, err)
	}
	for _, c := range idle {
		c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		if rest, err := io.ReadAll(c.conn); err != nil || len(rest) != 0 {
			t.Fatalf("idle connection read %q, %v; want a clean EOF", rest, err)
		}
	}
}

// TestShutdownDrainCancelsParkedRequest: Shutdown's kick is for idle
// readers, not for the watcher of a request in flight. That request must
// stay cancellable for the whole drain — by the force-close at the drain's
// deadline, and by its own client hanging up meanwhile — whether its
// watcher was already reading when the kick landed or started afterwards.
// (A watcher that took every timeout for its own loop's kick left parked
// requests unwatched, and Shutdown waiting on them past its deadline.)
func TestShutdownDrainCancelsParkedRequest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		age      time.Duration // of the request when Shutdown begins
		drain    time.Duration
		hangUp   bool
		wantErr  error
		wantDone time.Duration
	}{
		{"deadline/watched", 20 * watchGrace, 50 * time.Millisecond, false, context.DeadlineExceeded, time.Second},
		{"deadline/young", 0, 50 * time.Millisecond, false, context.DeadlineExceeded, time.Second},
		{"hangup/watched", 20 * watchGrace, 30 * time.Second, true, nil, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t)
			s, addr := startServer(t, Config{Workers: 1})
			release := sync.OnceFunc(parkGET(t, s, dial(t, addr))) // wedges the only worker
			defer release()
			c := dial(t, addr)
			if _, err := c.conn.Write([]byte("GET k\n")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return s.group.Shard(0).Pool().QueueLen() == 1 }, "the second GET to queue")
			time.Sleep(tc.age)

			ctx, cancel := context.WithTimeout(context.Background(), tc.drain)
			defer cancel()
			done := make(chan error, 1)
			start := time.Now()
			go func() { done <- s.Shutdown(ctx) }()
			if tc.hangUp {
				time.Sleep(20 * time.Millisecond) // let the kick land first
				c.conn.Close()
			}
			waitFor(t, tc.wantDone, func() bool {
				q, _ := s.cancelCounts()
				return q == 1
			}, "the queued GET to be cancelled during the drain")
			if took := time.Since(start); took > tc.wantDone {
				t.Fatalf("the queued GET was cancelled %v into the drain", took)
			}
			if ps := s.PoolStats(); ps.Submitted != 2 || ps.CancelledQueued != 1 || ps.Completed != 0 {
				t.Fatalf("pool stats: %+v", ps)
			}
			// The wedged GET cannot unwind inside the store lock; only now
			// may it, and Shutdown with it, finish.
			release()
			if err := <-done; !errors.Is(err, tc.wantErr) {
				t.Fatalf("Shutdown err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}
