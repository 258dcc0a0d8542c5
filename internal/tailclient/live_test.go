package tailclient

import (
	"net"
	"testing"
	"time"

	"repro/internal/liveserver"
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
