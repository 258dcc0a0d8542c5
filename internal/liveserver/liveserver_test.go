package liveserver

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mica"
	"repro/preemptible"
)

type testClient struct {
	conn net.Conn
	r    *bufio.Scanner
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	s := New(rt, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck
	t.Cleanup(s.Close)
	return s, ln.Addr().String()
}

// classTotals reads the group-total admission series of both classes
// from one STATS v2 document.
func classTotals(s *Server) (lc, be ClassSeries) {
	m := s.MetricsV2()
	return m.Totals["lc"], m.Totals["be"]
}

// holdStoreLock occupies shard idx's store lock until the returned
// release func is called — the deterministic way to wedge a GET inside
// its critical section (no safepoints there). It returns once the lock
// is actually held.
func holdStoreLock(s *Server, idx int) (release func()) {
	entered := make(chan struct{})
	released := make(chan struct{})
	done := make(chan struct{})
	go func() {
		s.group.Shard(idx).StoreView(func(*mica.Store) {
			close(entered)
			<-released
		})
		close(done)
	}()
	<-entered
	return func() {
		close(released)
		<-done
	}
}

func dial(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &testClient{conn: conn, r: sc}
}

func (c *testClient) roundTrip(t *testing.T, req string) string {
	t.Helper()
	if _, err := c.conn.Write([]byte(req + "\n")); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no response to %q: %v", req, c.r.Err())
	}
	return c.r.Text()
}

func TestKVRoundTrip(t *testing.T) {
	s, addr := startServer(t, Config{})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	if got := c.roundTrip(t, "GET missing"); got != "NOT_FOUND" {
		t.Fatalf("GET missing → %q", got)
	}
	if got := c.roundTrip(t, "SET k hello world"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.roundTrip(t, "GET k"); got != "VALUE hello world" {
		t.Fatalf("GET → %q", got)
	}
	if get, set, ping := s.Requests.Get.Load(), s.Requests.Set.Load(), s.Requests.Ping.Load(); get != 2 || set != 1 || ping != 1 {
		t.Fatalf("counters: get=%d set=%d ping=%d", get, set, ping)
	}
}

func TestCompressWorks(t *testing.T) {
	_, addr := startServer(t, Config{Quantum: 500 * time.Microsecond})
	c := dial(t, addr)
	got := c.roundTrip(t, "COMPRESS 8")
	if !strings.HasPrefix(got, "COMPRESSED 8192 ") {
		t.Fatalf("COMPRESS → %q", got)
	}
}

func TestErrors(t *testing.T) {
	s, addr := startServer(t, Config{})
	c := dial(t, addr)
	for _, req := range []string{"", "NOPE", "GET", "SET k", "COMPRESS x", "COMPRESS 9999"} {
		if req == "" {
			continue // scanner can't send empty lines distinctly; skip
		}
		if got := c.roundTrip(t, req); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q → %q, want ERR", req, got)
		}
	}
	if s.Requests.Errors.Load() == 0 {
		t.Fatal("error counter never moved")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 2, Quantum: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for i := 0; i < 25; i++ {
				key := "k" + string(rune('a'+g))
				if _, err := conn.Write([]byte("SET " + key + " v\nGET " + key + "\n")); err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < 2; j++ {
					if !sc.Scan() {
						t.Error("missing response")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if set, get := s.Requests.Set.Load(), s.Requests.Get.Load(); set != 100 || get != 100 {
		t.Fatalf("counters: set=%d get=%d", set, get)
	}
	if s.PoolStats().Completed != 200 {
		t.Fatalf("pool completed %d", s.PoolStats().Completed)
	}
}

func TestShortOpsNotBlockedByCompression(t *testing.T) {
	// A long COMPRESS on one connection must not head-of-line block a
	// PING on another when the quantum is fine: the pool preempts the
	// compression at safepoints.
	_, addr := startServer(t, Config{Workers: 1, Quantum: 500 * time.Microsecond})
	longC := dial(t, addr)
	shortC := dial(t, addr)

	compStart := time.Now()
	done := make(chan string, 1)
	go func() { done <- longC.roundTrip(t, "COMPRESS 256") }()
	time.Sleep(5 * time.Millisecond) // let the compression start

	start := time.Now()
	if got := shortC.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	pingLatency := time.Since(start)

	compResp := <-done
	compLatency := time.Since(compStart)
	if !strings.HasPrefix(compResp, "COMPRESSED") {
		t.Fatalf("COMPRESS → %q", compResp)
	}
	// 256kB of flate takes tens of ms (several hundred under -race);
	// the PING must not wait for it. A head-of-line-blocked PING waits
	// out nearly the whole compression, so assert it finished in a
	// small fraction of the compression's own duration — the bound
	// scales with however slow this machine and build mode are.
	t.Logf("ping %v vs compress %v", pingLatency, compLatency)
	if pingLatency > compLatency/3 {
		t.Fatalf("PING latency %v vs COMPRESS %v: head-of-line blocked behind compression",
			pingLatency, compLatency)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s, addr := startServer(t, Config{})
	c := dial(t, addr)
	_ = c.roundTrip(t, "PING")
	s.Close()
	s.Close()
}
