package liveserver

// Load-shedding tests: each shedding path (accept, admission,
// queue timeout, line length) must reject explicitly, keep serving the
// connections it admitted, and count exactly what it shed.

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestConnStormSheds(t *testing.T) {
	// A 10×-capacity connection storm: the two admitted connections
	// keep working, every connection beyond MaxConns gets exactly one
	// "ERR overloaded" and a close, and the shed counter is exact.
	s, addr := startServer(t, Config{MaxConns: 2})

	held := []*testClient{dial(t, addr), dial(t, addr)}
	for _, c := range held {
		if got := c.roundTrip(t, "PING"); got != "PONG" {
			t.Fatalf("held conn PING → %q", got)
		}
	}

	const storm = 10
	for i := 0; i < storm; i++ {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		sc := bufio.NewScanner(conn)
		if !sc.Scan() {
			t.Fatalf("storm conn %d: no shed response: %v", i, sc.Err())
		}
		if got := sc.Text(); got != "ERR overloaded" {
			t.Fatalf("storm conn %d → %q, want ERR overloaded", i, got)
		}
		// The shed connection must be closed, not kept half-open.
		if sc.Scan() {
			t.Fatalf("storm conn %d: unexpected second line %q", i, sc.Text())
		}
		conn.Close()
	}

	// Admitted connections still work after the storm.
	for _, c := range held {
		if got := c.roundTrip(t, "PING"); got != "PONG" {
			t.Fatalf("held conn PING after storm → %q", got)
		}
	}
	if got := s.MetricsV2().ShedConns; got != storm {
		t.Fatalf("ShedConns = %d, want %d", got, storm)
	}
}

func TestInflightAdmissionSheds(t *testing.T) {
	// With one worker busy on a long compression and MaxInflight 1, a
	// second request is fast-rejected at admission without touching the
	// pool.
	s, addr := startServer(t, Config{Workers: 1, Quantum: 500 * time.Microsecond,
		MaxInflight: 1})
	longC := dial(t, addr)
	shortC := dial(t, addr)

	done := make(chan string, 1)
	go func() { done <- longC.roundTrip(t, "COMPRESS 256") }()
	time.Sleep(5 * time.Millisecond) // compression now holds the one inflight slot

	if got := shortC.roundTrip(t, "PING"); got != "ERR overloaded" {
		t.Fatalf("PING during overload → %q, want ERR overloaded", got)
	}
	if !strings.HasPrefix(<-done, "COMPRESSED") {
		t.Fatal("admitted compression was disturbed by the shed request")
	}
	if lc, _ := classTotals(s); lc.RejectedNormal != 1 {
		t.Fatalf("inflight-cap rejections = %d, want 1", lc.RejectedNormal)
	}
	// Load has drained: the same request is admitted again.
	if got := shortC.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after drain → %q", got)
	}
}

func TestRequestTimeoutSheds(t *testing.T) {
	// A request stuck in the pool queue past RequestTimeout is shed at
	// pickup — never executed — and answers "ERR overloaded". The worker
	// is wedged deterministically by holding the store lock: a GET has
	// no safepoint inside the critical section, so it cannot be
	// preempted the way a COMPRESS can.
	s, addr := startServer(t, Config{Workers: 1, Quantum: 500 * time.Microsecond,
		RequestTimeout: 5 * time.Millisecond})
	getC := dial(t, addr)
	pingC := dial(t, addr)

	release := holdStoreLock(s, 0)
	getDone := make(chan string, 1)
	go func() { getDone <- getC.roundTrip(t, "GET k") }()
	time.Sleep(10 * time.Millisecond) // the worker is now blocked on the store lock

	pingDone := make(chan string, 1)
	go func() { pingDone <- pingC.roundTrip(t, "PING") }()
	time.Sleep(20 * time.Millisecond) // PING's pickup deadline lapses in queue
	release()

	if got := <-pingDone; got != "ERR overloaded" {
		t.Fatalf("queued PING → %q, want ERR overloaded", got)
	}
	if got := <-getDone; got != "NOT_FOUND" {
		t.Fatalf("GET → %q, want NOT_FOUND", got)
	}
	if lc, _ := classTotals(s); lc.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", lc.Timeouts)
	}
	if got := pingC.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after drain → %q", got)
	}
}

func TestLineTooLongClosesConn(t *testing.T) {
	s, addr := startServer(t, Config{MaxLineBytes: 64})
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	line := append([]byte("SET k "), make([]byte, 200)...)
	for i := 6; i < len(line); i++ {
		line[i] = 'a'
	}
	line = append(line, '\n')
	if _, err := conn.Write(line); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no response to over-long line: %v", sc.Err())
	}
	if got := sc.Text(); got != "ERR line too long" {
		t.Fatalf("over-long line → %q, want ERR line too long", got)
	}
	// The violating connection is closed, not left to stream more junk.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open after protocol violation: %v", err)
	}
	if got := s.MetricsV2().LineTooLong; got != 1 {
		t.Fatalf("LineTooLong = %d, want 1", got)
	}
}
