package tailclient

import (
	"fmt"
	"net"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/liveserver"
	"repro/internal/testutil"
	"repro/preemptible"
)

// TestAgainstLiveServer wires the tail-tolerant client to the real
// liveserver: D/A tokens round-trip through the actual parser, a
// comfortable OpDeadline never expires in steady state, and the
// server's expiry counters stay at zero — the "zero LC expiry
// regressions in steady state" acceptance check, end to end.
func TestAgainstLiveServer(t *testing.T) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	s := liveserver.New(rt, liveserver.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck
	t.Cleanup(s.Close)

	c := New(Config{Addr: ln.Addr().String(), OpDeadline: 5 * time.Second, Hedge: true, Seed: 1})
	defer c.Close()

	if res, err := c.Do("SET k v1"); err != nil || res.Outcome != OK || res.Resp != "OK" {
		t.Fatalf("SET: res=%+v err=%v", res, err)
	}
	for i := 0; i < 25; i++ {
		res, err := c.Do("GET k")
		if err != nil || res.Outcome != OK || res.Resp != "VALUE v1" {
			t.Fatalf("GET %d: res=%+v err=%v", i, res, err)
		}
	}
	st := c.Stats()
	if st.Expired != 0 || st.Aborted != 0 {
		t.Fatalf("steady state expired=%d aborted=%d, want 0/0", st.Expired, st.Aborted)
	}
	stats, err := c.Do("STATS2")
	if err != nil || stats.Outcome != OK {
		t.Fatalf("STATS2: res=%+v err=%v", stats, err)
	}
	m, err := liveserver.DecodeMetricsV2(stats.Resp)
	if err != nil {
		t.Fatal(err)
	}
	for class, cs := range m.Totals {
		if cs.ExpiredQueued != 0 || cs.ExpiredExecuting != 0 {
			t.Fatalf("deadline-carrying steady-state traffic expired server-side: %s %+v", class, cs)
		}
	}
}

// startLiveServer serves a real liveserver of the given number of shards
// on a loopback port.
func startLiveServer(t *testing.T, shards int) (*liveserver.Server, string) {
	t.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	s := liveserver.New(rt, liveserver.Config{Workers: 2, Shards: shards, BrownoutDisabled: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

// TestAllocBudgetLoopback pins what one operation allocates end to end —
// client and server together, over loopback TCP, with a deadline on the
// wire as a deployed client has: the unit-test twin of the benchmark's
// gated allocs_per_op. What is left is the Result.Resp string. The MGET
// row is the benchmark's mget_fanout shape: 8 keys over every shard of
// four, 256 B values with bytes to escape (63 allocations when each leg
// was a closure and each token a string).
func TestAllocBudgetLoopback(t *testing.T) {
	s, addr := startLiveServer(t, 4)
	c := New(Config{Addr: addr, OpDeadline: 5 * time.Second, Seed: 1})
	defer c.Close()
	value := strings.Repeat("ab+/cd9=", 32)
	mget, mvalues := "MGET", "MVALUES"
	for i := 0; i < 8; i++ {
		key := ""
		for n := 0; key == "" || s.Group().Route([]byte(key)) != i%4; n++ {
			key = fmt.Sprintf("m%d-%d", i, n)
		}
		if res, err := c.Do("SET " + key + " " + value); err != nil || res.Resp != "OK" {
			t.Fatalf("SET %s: res=%+v err=%v", key, res, err)
		}
		mget += " " + key
		mvalues += " =" + url.QueryEscape(value)
	}
	for _, row := range []struct {
		op, want string
		budget   float64
	}{
		{"SET k value-of-thirty-two-bytes-----x", "OK", 1},
		{"GET k", "VALUE value-of-thirty-two-bytes-----x", 1},
		{mget, mvalues, 1},
	} {
		testutil.AllocBudget(t, `Client.Do("`+row.op[:min(len(row.op), 40)]+`") over loopback`, row.budget, func() {
			if res, err := c.Do(row.op); err != nil || res.Outcome != OK || res.Resp != row.want || res.Attempts != 1 {
				t.Fatalf("%s: res=%+v err=%v", row.op, res, err)
			}
		})
	}
}

// TestLongReplyRoundTrips: a reply longer than the connection's 64 KiB
// reader — a fat value, a wide MGET — takes the accumulating read, and
// the connection is good for the next operation.
func TestLongReplyRoundTrips(t *testing.T) {
	_, addr := startLiveServer(t, 1)
	c := New(Config{Addr: addr, MaxConns: 1, Seed: 1})
	defer c.Close()
	big := strings.Repeat("v", 60<<10)
	var mget, want strings.Builder
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("big%d", i)
		if res, err := c.Do("SET " + key + " " + big + " A0"); err != nil || res.Resp != "OK" {
			t.Fatalf("SET %s: res.Outcome=%v err=%v", key, res.Outcome, err)
		}
		mget.WriteString(" " + key)
		want.WriteString(" =" + big)
	}
	if res, err := c.Do("MGET" + mget.String()); err != nil || res.Outcome != OK || res.Resp != "MVALUES"+want.String() {
		t.Fatalf("MGET: outcome %v, %d reply bytes (want %d), err %v", res.Outcome, len(res.Resp), len("MVALUES")+want.Len(), err)
	}
	if res, err := c.Do("GET big0"); err != nil || res.Resp != "VALUE "+big {
		t.Fatalf("GET after the long reply: outcome %v, %d reply bytes, err %v", res.Outcome, len(res.Resp), err)
	}
	if st := c.Stats(); st.ConnsEvicted != 0 || st.Attempts != 5 {
		t.Fatalf("stats = %+v, want 5 attempts on one healthy connection", st)
	}
}
