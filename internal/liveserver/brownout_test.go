package liveserver

// Brownout regression matrix: a correlated-burst BE workload (replayed
// from a seeded chaos.BurstWindows schedule) drives the live server
// into BROWNOUT and back while an LC trickle keeps flowing. The matrix
// asserts the whole contract at once — the controller engages during
// bursts, LC is never turned away while merely browned out, per-class
// pool accounting conserves every request exactly, and the controller
// exits cleanly without flapping.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/brownout"
	"repro/internal/chaos"
	"repro/preemptible"
)

// waitState polls until the admission path sees the wanted state.
func waitState(t *testing.T, s *Server, want brownout.State, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if s.BrownoutState() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("state %v not reached within %v (now %v, load %.3f, history %+v)",
		want, within, s.BrownoutState(), s.Brownout().Load(), s.Brownout().History())
}

// waitDrained polls until the pool's per-class accounting balances:
// every submitted request settled (completed, rejected, shed, or
// cancelled) and nothing is still in flight.
func waitDrained(t *testing.T, s *Server, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		st := s.PoolStats()
		ok := true
		for c := 0; c < preemptible.NumClasses; c++ {
			if st.PerClass[c].Settled() != st.PerClass[c].Submitted {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("pool did not drain within %v: %+v", within, s.PoolStats().PerClass)
}

func TestBrownoutRegressionMatrix(t *testing.T) {
	// One worker and a fast attack (AlphaRise 0.9): a burst's arrival
	// spike drives entry within a couple of controller ticks, while the
	// worker has started only the head of the backlog — so each entry
	// catches genuinely queued BE work to evict. Short COMPRESS ops and
	// quick client retries keep BE returning to the door during the
	// burst, sustaining reject pressure.
	cfg := Config{
		Workers:        1,
		Quantum:        time.Millisecond,
		MaxInflight:    8,
		BrownoutPeriod: time.Millisecond,
		Brownout: brownout.Config{
			EnterBrownout: 0.9, ExitBrownout: 0.4,
			EnterShed: 6.0, ExitShed: 3.0,
			AlphaRise: 0.9, AlphaFall: 0.15,
			MinDwell: 15 * time.Millisecond,
		},
	}
	s, addr := startServer(t, cfg)

	// LC trickle: two clients doing KV work for the whole run, recording
	// every response. The brownout contract says none of these may ever
	// see "ERR brownout".
	stopLC := make(chan struct{})
	var lcWG sync.WaitGroup
	var lcMu sync.Mutex
	lcResponses := make(map[string]int)
	for i := 0; i < 2; i++ {
		lcWG.Add(1)
		go func() {
			defer lcWG.Done()
			c := dial(t, addr)
			for n := 0; ; n++ {
				select {
				case <-stopLC:
					return
				default:
				}
				req := "SET k v"
				if n%2 == 1 {
					req = "GET k"
				}
				resp := c.roundTrip(t, req)
				if !strings.HasPrefix(resp, "ERR") {
					resp = strings.Fields(resp)[0]
				}
				lcMu.Lock()
				lcResponses[resp]++
				lcMu.Unlock()
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}

	// Replay the seeded burst schedule in real time: during bad windows,
	// 8 BE clients hammer COMPRESS (long tasks, paced retries) — the
	// correlated burst. Good windows are quiet gaps that tempt the
	// controller to disengage early.
	windows := chaos.BurstWindows(42, 30*time.Millisecond, 60*time.Millisecond, 600*time.Millisecond)
	var beWG sync.WaitGroup
	var beMu sync.Mutex
	beResponses := make(map[string]int)
	for _, w := range windows {
		if !w.Bad {
			time.Sleep(w.Duration())
			continue
		}
		stopBE := make(chan struct{})
		for i := 0; i < 8; i++ {
			beWG.Add(1)
			go func() {
				defer beWG.Done()
				c := dial(t, addr)
				for {
					select {
					case <-stopBE:
						return
					default:
					}
					resp := c.roundTrip(t, "COMPRESS 8")
					beMu.Lock()
					beResponses[strings.Join(strings.Fields(resp)[:2], " ")]++
					beMu.Unlock()
					time.Sleep(time.Millisecond)
				}
			}()
		}
		time.Sleep(w.Duration())
		close(stopBE)
		beWG.Wait()
	}
	close(stopLC)
	lcWG.Wait()

	// --- Matrix row 1: the bursts drove the controller into BROWNOUT.
	hist := s.Brownout().History()
	entered := false
	for _, tr := range hist {
		if tr.To == brownout.Brownout {
			entered = true
		}
	}
	if !entered {
		t.Fatalf("correlated bursts never drove the controller into brownout: %+v", hist)
	}

	// --- Matrix row 2: LC was protected. No LC request was rejected
	// while the server was merely browned out, and no LC client ever saw
	// the BE-only "ERR brownout" line.
	lc, be := classTotals(s)
	if got := lc.RejectedBrownout; got != 0 {
		t.Errorf("%d LC requests rejected during BROWNOUT, want 0", got)
	}
	lcMu.Lock()
	if n := lcResponses["ERR brownout"]; n != 0 {
		t.Errorf("LC clients saw \"ERR brownout\" %d times: %v", n, lcResponses)
	}
	lcMu.Unlock()

	// --- Matrix row 3: BE actually took the hit — fast-rejected with
	// "ERR brownout" at the door and evicted from the queue.
	if be.RejectedBrownout == 0 {
		t.Error("no BE request was fast-rejected during BROWNOUT")
	}
	if be.Evicted == 0 {
		t.Error("no queued BE request was evicted on the brownout transition")
	}
	beMu.Lock()
	if beResponses["ERR brownout"] == 0 {
		t.Errorf("BE clients never saw \"ERR brownout\": %v", beResponses)
	}
	beMu.Unlock()

	// --- Matrix row 4: exact per-class work conservation. Every request
	// the pool accepted is accounted for: Submitted = Completed + Shed +
	// Failed + Cancelled + Expired, per class, with nothing in flight.
	waitDrained(t, s, 2*time.Second)
	st := s.PoolStats()
	for c := 0; c < preemptible.NumClasses; c++ {
		cs := st.PerClass[c]
		if cs.Settled() != cs.Submitted {
			t.Errorf("class %v: settled %d != submitted %d (%+v)",
				preemptible.Class(c), cs.Settled(), cs.Submitted, cs)
		}
	}
	if lcStats := st.PerClass[preemptible.ClassLC]; lcStats.Shed != 0 {
		t.Errorf("LC work was shed inside the pool: %+v", lcStats)
	}

	// --- Matrix row 5: clean exit, no flapping. The controller returns
	// to NORMAL once pressure drains, and every transition honored the
	// minimum dwell.
	waitState(t, s, brownout.Normal, 2*time.Second)
	hist = s.Brownout().History()
	if last := hist[len(hist)-1]; last.To != brownout.Normal {
		t.Errorf("history does not end in a transition to normal: %+v", hist)
	}
	dwell := s.Brownout().Config().MinDwell
	for i := 1; i < len(hist); i++ {
		if gap := hist[i].At.Sub(hist[i-1].At); gap < dwell {
			t.Errorf("transitions %d→%d only %v apart, want ≥ %v (flapping): %+v",
				i-1, i, gap, dwell, hist)
		}
	}
	t.Logf("matrix: %d transitions, LC responses %v, BE responses %v, evicted %d",
		len(hist), lcResponses, beResponses, be.Evicted)
}

func TestBrownoutShedEscalation(t *testing.T) {
	// Reject pressure escalates BROWNOUT to SHED: once BE is being
	// turned away at the door, sustained rejects keep the offered-load
	// signal high, and only SHED may reject LC.
	cfg := Config{
		Workers:        2,
		MaxInflight:    4,
		BrownoutPeriod: time.Millisecond,
		Brownout: brownout.Config{
			EnterBrownout: 0.5, ExitBrownout: 0.2,
			EnterShed: 1.5, ExitShed: 0.8,
			AlphaRise: 0.8, AlphaFall: 0.2,
			MinDwell: 10 * time.Millisecond,
		},
	}
	s, addr := startServer(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.roundTrip(t, "COMPRESS 256")
			}
		}()
	}
	waitState(t, s, brownout.Shed, 5*time.Second)

	// While shedding, even LC is turned away — with the back-off line,
	// not the retry-soon line.
	lcC := dial(t, addr)
	if got := lcC.roundTrip(t, "PING"); got != "ERR overloaded" {
		t.Errorf("LC during SHED → %q, want \"ERR overloaded\"", got)
	}
	close(stop)
	wg.Wait()

	lc, be := classTotals(s)
	if lc.RejectedShed == 0 {
		t.Error("no LC rejection recorded against SHED")
	}
	if lc.RejectedBrownout != 0 {
		t.Errorf("%d LC rejections recorded against BROWNOUT, want 0", lc.RejectedBrownout)
	}
	if be.RejectedBrownout == 0 || lc.RejectedShed+be.RejectedShed == 0 {
		t.Errorf("expected both reject kinds on the way up: brownout=%d overloaded=%d",
			be.RejectedBrownout, lc.RejectedShed+be.RejectedShed)
	}

	// Load drains → SHED steps down to BROWNOUT, then to NORMAL.
	waitState(t, s, brownout.Normal, 5*time.Second)
	hist := s.Brownout().History()
	for i, tr := range hist {
		if d := tr.To - tr.From; d != 1 && d != -1 {
			t.Errorf("transition %d skipped a state: %+v", i, tr)
		}
	}
}

func TestBrownoutStatsCommand(t *testing.T) {
	s, addr := startServer(t, Config{})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	m, err := DecodeMetricsV2(c.roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	if m.State != "normal" {
		t.Fatalf("STATS2 state = %q, want normal", m.State)
	}
	if got := m.Totals["lc"].Requests; got != 1 {
		t.Fatalf("STATS2 after one PING counts %d LC requests, want 1", got)
	}
	if got := m.Totals["be"].Requests; got != 0 {
		t.Fatalf("STATS2 after one PING counts %d BE requests", got)
	}
	if n := s.Requests.Stats.Load(); n != 1 {
		t.Fatalf("Requests.Stats = %d, want 1", n)
	}
	// The flat v1 line is gone, not aliased.
	if got := c.roundTrip(t, "STATS"); got != "ERR unknown command STATS" {
		t.Fatalf("STATS → %q, want the unknown-command error", got)
	}
}

func TestBrownoutDisabledRecoversLegacyShedding(t *testing.T) {
	// With the controller off, the server is the pre-brownout one:
	// every class sheds indiscriminately at the inflight cap, and no
	// request ever sees "ERR brownout".
	s, addr := startServer(t, Config{
		Workers:          1,
		MaxInflight:      1,
		BrownoutDisabled: true,
	})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	hold := dial(t, addr)
	if _, err := hold.conn.Write([]byte("COMPRESS 1024\n")); err != nil {
		t.Fatal(err)
	}
	// Wait until the long request occupies the only inflight slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflightTotal() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "ERR overloaded" {
		t.Fatalf("LC over the cap with brownout disabled → %q, want \"ERR overloaded\"", got)
	}
	if st := s.BrownoutState(); st != brownout.Normal {
		t.Fatalf("disabled controller reports %v", st)
	}
	if lc, _ := classTotals(s); lc.RejectedNormal != 1 || lc.RejectedBrownout+lc.RejectedShed != 0 {
		t.Fatalf("cap rejection not attributed to Normal: %+v", lc)
	}
}
