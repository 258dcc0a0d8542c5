package liveserver

// Fault-containment regression matrix: a seeded chaos.PanicInjector
// picks, in Gilbert–Elliott bursts, which of the BE clients' requests
// run a panicking body (through poisoned, below) while the rest go over
// TCP and an LC trickle keeps flowing. The matrix asserts
// the whole containment contract at once — no injected panic escapes
// the pool (the process and every worker survive, accounting conserves
// each request), the BE breaker trips to fast-reject the poisoned
// class and recovers through probes with no flapping, and LC traffic
// is never failed or rejected by the breaker.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/brownout"
	"repro/internal/chaos"
	"repro/internal/shard"
	"repro/preemptible"
)

// poisoned runs one request line through the full request path — parse,
// route, shard.Do, settle, reply — exactly as a connection would, except
// that the pool task the handler is bound to panics mid-run, after one
// safepoint, the way a genuinely buggy handler would. It returns the
// response line.
func poisoned(s *Server, line string) string {
	h := &handler{s: s}
	h.task = func(ctx *preemptible.Ctx) {
		ctx.Checkpoint()
		panic("chaos: injected panic")
	}
	h.handle([]byte(line))
	return string(h.out)
}

// TestSettleAndFailTokenCoverEveryOutcome pins the wire mapping of every
// shard.Outcome: the response line of a single-shard request and the
// per-key token of a failed MGET leg.
func TestSettleAndFailTokenCoverEveryOutcome(t *testing.T) {
	cases := []struct {
		o           shard.Outcome
		line, token string
	}{
		{shard.OK, "", "ERROR"}, // an OK leg never asks for a token
		{shard.RejectedShed, "ERR overloaded", "OVERLOADED"},
		{shard.RejectedBrownout, "ERR brownout", "BROWNOUT"},
		{shard.RejectedInflight, "ERR overloaded", "OVERLOADED"},
		{shard.Unavailable, "ERR unavailable", "UNAVAILABLE"},
		{shard.Failed, "ERR internal", "ERROR"},
		{shard.CancelledQueued, "ERR cancelled", "CANCELLED"},
		{shard.CancelledExecuting, "ERR cancelled", "CANCELLED"},
		{shard.ExpiredQueued, "ERR deadline", "DEADLINE"},
		{shard.ExpiredExecuting, "ERR deadline", "DEADLINE"},
		{shard.Evicted, "ERR overloaded", "BROWNOUT"}, // line follows BState; see below
		{shard.Timeout, "ERR overloaded", "OVERLOADED"},
	}
	seen := make(map[shard.Outcome]bool)
	for _, c := range cases {
		seen[c.o] = true
		if got := settle(shard.Result{Outcome: c.o, BState: brownout.Shed}); got != c.line {
			t.Errorf("settle(%v) = %q, want %q", c.o, got, c.line)
		}
		if got := failToken(c.o); got != c.token {
			t.Errorf("failToken(%v) = %q, want %q", c.o, got, c.token)
		}
	}
	// The table is the whole enum: Timeout is its last member, and the
	// first value past it is what Outcome.String calls unknown.
	for o := shard.OK; o <= shard.Timeout; o++ {
		if !seen[o] {
			t.Errorf("outcome %v has no row", o)
		}
	}
	if past := shard.Timeout + 1; !strings.HasPrefix(past.String(), "Outcome(") {
		t.Errorf("shard.Outcome grew past Timeout (%v): add its row", past)
	}
	if got := settle(shard.Result{Outcome: shard.Evicted, BState: brownout.Brownout}); got != "ERR brownout" {
		t.Errorf("settle(Evicted while browned out) = %q, want \"ERR brownout\"", got)
	}
}

// TestPanicContainmentSingleRequest: one poisoned BE request answers
// "ERR internal"; the connection, worker, and subsequent requests are
// unharmed.
func TestPanicContainmentSingleRequest(t *testing.T) {
	s, addr := startServer(t, Config{
		Workers:          1,
		BrownoutDisabled: true,
	})
	c := dial(t, addr)
	if got := c.roundTrip(t, "COMPRESS 2"); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("healthy COMPRESS → %q", got)
	}
	if got := poisoned(s, "COMPRESS 2"); got != "ERR internal" {
		t.Fatalf("poisoned COMPRESS → %q, want \"ERR internal\"", got)
	}
	// Same connection, same (sole) worker: both survived.
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING after contained panic → %q", got)
	}
	if got := c.roundTrip(t, "COMPRESS 2"); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("COMPRESS after contained panic → %q", got)
	}
	st := s.PoolStats()
	if st.Failed != 1 || st.PerClass[preemptible.ClassBE].Failed != 1 {
		t.Fatalf("pool failure counters: %+v", st)
	}
}

func TestFaultContainmentRegressionMatrix(t *testing.T) {
	// Panic schedule: a seeded injector, stepped once per BE request by
	// the client about to send it, poisons BE bodies in correlated
	// bursts — well over the 1% floor — for as long as the storm's BE
	// clients run; the storm then ends and healthy traffic feeds the
	// recovery probes.
	inject := chaos.NewPanicInjector(chaos.PanicConfig{
		Seed: 1234,
		Prob: 0.05,
		Burst: &chaos.GEConfig{
			MeanGood: 30, MeanBad: 20,
		},
	})
	bcfg := breaker.Config{
		FailureThreshold: 5,
		OpenTimeout:      20 * time.Millisecond,
		HalfOpenProbes:   2,
	}
	s, addr := startServer(t, Config{
		Workers:          2,
		Quantum:          time.Millisecond,
		MaxInflight:      32,
		BrownoutDisabled: true, // isolate the breaker's contract from load control
		Breaker:          bcfg,
	})

	// LC trickle for the whole run: the containment contract says none
	// of these may ever see a breaker reject or an internal error.
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

	// BE panic storm under burst load: clients hammer COMPRESS through
	// the seeded burst windows; the injector poisons a clustered subset,
	// which runs in-process through poisoned instead of over the wire.
	windows := chaos.BurstWindows(99, 20*time.Millisecond, 50*time.Millisecond, 400*time.Millisecond)
	var beMu sync.Mutex
	beResponses := make(map[string]int)
	beClient := func(stop chan struct{}, wg *sync.WaitGroup) {
		defer wg.Done()
		c := dial(t, addr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var resp string
			if inject.Should() {
				resp = poisoned(s, "COMPRESS 4")
			} else {
				resp = c.roundTrip(t, "COMPRESS 4")
			}
			key := resp
			if f := strings.Fields(resp); len(f) >= 2 && !strings.HasPrefix(resp, "ERR") {
				key = f[0]
			}
			beMu.Lock()
			beResponses[key]++
			beMu.Unlock()
			time.Sleep(500 * time.Microsecond)
		}
	}
	// Replay the schedule until enough BE traffic has flowed to make
	// the matrix meaningful on slow machines (-race): the injector's
	// poison schedule stays one deterministic seeded stream across
	// rounds, and the GE chain's bad sojourns (DropBad=1) guarantee
	// runs of ≥ FailureThreshold consecutive failures. Seed 1234's first
	// 295 steps hold one run of 8 — a trip, with luck, and nobody left in
	// the window to be turned away; steps 295–347 are the first real
	// storm (52 in a row). The old bound (5 rounds or 300 steps) stopped
	// short of it one -race run in five on a 2-vCPU box, which was this
	// test's logged flake; 400 steps always includes it.
	var beWG sync.WaitGroup
	for round := 0; round < 20 && inject.Counters().Requests < 400; round++ {
		for _, w := range windows {
			if !w.Bad {
				time.Sleep(w.Duration())
				continue
			}
			stopBE := make(chan struct{})
			for i := 0; i < 6; i++ {
				beWG.Add(1)
				go beClient(stopBE, &beWG)
			}
			time.Sleep(w.Duration())
			close(stopBE)
			beWG.Wait()
		}
	}

	// Storm over: nobody poisons any more; keep gentle BE traffic flowing
	// so the breaker's half-open probes see healthy completions and
	// reclose it.
	be := s.Breaker(preemptible.ClassBE)
	recover := dial(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for be.State(time.Now()) != breaker.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("BE breaker never reclosed after the storm: state %v, history %+v",
				be.State(time.Now()), be.History())
		}
		recover.roundTrip(t, "COMPRESS 1")
		time.Sleep(time.Millisecond)
	}
	close(stopLC)
	lcWG.Wait()

	// --- Row 1: the storm was real. The injector poisoned well past
	// the 1% floor of the BE requests the storm's clients sent.
	ctr := inject.Counters()
	if ctr.Total() == 0 {
		t.Fatal("the seeded injector never poisoned a request")
	}
	if ctr.Requests > 0 && float64(ctr.Total()) < 0.01*float64(ctr.Requests) {
		t.Errorf("poisoned %d of %d BE requests, below the 1%% floor", ctr.Total(), ctr.Requests)
	}

	// --- Row 2: no injected panic escaped the pool. The process is
	// alive (we are here), every shard.Failed result the poisoners were
	// handed ("ERR internal"; the breaker turned the rest away) is one
	// task the pool settled as Failed — no more, no less — and per-class
	// accounting conserves every request.
	waitDrained(t, s, 2*time.Second)
	st := s.PoolStats()
	beMu.Lock()
	failedSeen := uint64(beResponses["ERR internal"])
	beMu.Unlock()
	if st.Failed != failedSeen {
		t.Errorf("pool Failed = %d, poisoners were answered \"ERR internal\" %d times", st.Failed, failedSeen)
	}
	if lcf := st.PerClass[preemptible.ClassLC].Failed; lcf != 0 {
		t.Errorf("%d LC tasks failed; only BE was poisoned", lcf)
	}

	// --- Row 3: the breaker tripped and fast-rejected the poisoned
	// class; clients saw the distinct fault signal, not a load signal.
	if be.Trips() == 0 {
		t.Error("BE breaker never tripped during the panic storm")
	}
	lcOv, beOv := classTotals(s)
	if beOv.Unavailable == 0 {
		t.Error("no BE request was fast-rejected by the tripped breaker")
	}
	if beOv.Failed == 0 {
		t.Error("no BE request was counted as failed")
	}
	beMu.Lock()
	if beResponses["ERR unavailable"] == 0 {
		t.Errorf("BE clients never saw \"ERR unavailable\": %v", beResponses)
	}
	beMu.Unlock()

	// --- Row 4: zero LC requests failed or breaker-rejected. The LC
	// breaker never tripped; LC clients saw only healthy responses.
	if lc := s.Breaker(preemptible.ClassLC); lc.Trips() != 0 {
		t.Errorf("LC breaker tripped %d times during a BE-only storm", lc.Trips())
	}
	if lcOv.Unavailable != 0 || lcOv.Failed != 0 {
		t.Errorf("LC harmed by the BE storm: unavailable=%d failed=%d", lcOv.Unavailable, lcOv.Failed)
	}
	lcMu.Lock()
	for _, bad := range []string{"ERR unavailable", "ERR internal"} {
		if n := lcResponses[bad]; n != 0 {
			t.Errorf("LC clients saw %q %d times: %v", bad, n, lcResponses)
		}
	}
	lcMu.Unlock()

	// --- Row 5: recovery with no flapping. The breaker's history ends
	// closed, and sustained healthy traffic never re-trips it.
	hist := be.History()
	if len(hist) == 0 || hist[len(hist)-1].To != breaker.Closed {
		t.Fatalf("breaker history does not end closed: %+v", hist)
	}
	trips := be.Trips()
	for i := 0; i < 100; i++ {
		if got := recover.roundTrip(t, "COMPRESS 1"); !strings.HasPrefix(got, "COMPRESSED") {
			t.Fatalf("healthy post-storm COMPRESS → %q", got)
		}
	}
	if got := be.Trips(); got != trips {
		t.Errorf("breaker re-tripped on healthy traffic: %d → %d (flapping)", trips, got)
	}
	if got := be.State(time.Now()); got != breaker.Closed {
		t.Errorf("breaker state %v after healthy traffic, want closed", got)
	}

	// --- Row 6: the breaker is observable. STATS2 reports the shard's
	// per-class state and trip counts.
	m, err := DecodeMetricsV2(dial(t, addr).roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	brk := m.PerShard[0].Breakers
	if got := brk["lc"]; got != (BreakerSeries{State: "closed"}) {
		t.Errorf("STATS2 LC breaker = %+v, want closed with 0 trips", got)
	}
	if got := brk["be"]; got.State != "closed" || got.Trips != be.Trips() {
		t.Errorf("STATS2 BE breaker = %+v, want closed with %d trips", got, be.Trips())
	}
	t.Logf("matrix: poisoned %d/%d BE requests, %d trips, LC %v, BE %v",
		ctr.Total(), ctr.Requests, be.Trips(), lcResponses, beResponses)
}

// TestShutdownGraceful: Shutdown with headroom finishes the in-flight
// request, answers it, and returns nil; nothing is cancelled.
func TestShutdownGraceful(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, BrownoutDisabled: true})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	// Launch a BE request and shut down once it is in flight: the
	// request must complete and be answered before its connection is
	// torn down. (A line still sitting in the read buffer at shutdown
	// is legitimately dropped — graceful drain covers work in progress,
	// not work not yet begun.)
	if _, err := c.conn.Write([]byte("COMPRESS 64\n")); err != nil {
		t.Fatal(err)
	}
	waitStart := time.Now().Add(2 * time.Second)
	for s.inflightTotal() == 0 && time.Now().Before(waitStart) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !c.r.Scan() {
		t.Fatalf("no response to the in-flight request: %v", c.r.Err())
	}
	if got := c.r.Text(); !strings.HasPrefix(got, "COMPRESSED") {
		t.Fatalf("in-flight request during graceful shutdown → %q", got)
	}
	st := s.PoolStats()
	if st.Cancelled() != 0 {
		t.Fatalf("graceful shutdown cancelled %d tasks", st.Cancelled())
	}
	if st.PerClass[preemptible.ClassBE].Completed == 0 {
		t.Fatalf("in-flight BE work not completed: %+v", st)
	}
}

// TestShutdownDeadlineCancelsStragglers: a deadline that cannot cover
// the in-flight work forces cancellation through the cancel-unwind
// path; Shutdown reports the deadline and accounting still balances.
func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s, addr := startServer(t, Config{Workers: 1, BrownoutDisabled: true})
	c := dial(t, addr)
	if got := c.roundTrip(t, "PING"); got != "PONG" {
		t.Fatalf("PING → %q", got)
	}
	// A single worker and a long COMPRESS: the 5ms budget cannot cover
	// it, so the drain deadline must cancel it at a safepoint.
	if _, err := c.conn.Write([]byte("COMPRESS 1024\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.inflightTotal() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	st := s.PoolStats()
	if st.Cancelled()+st.Completed == 0 {
		t.Fatalf("in-flight work neither cancelled nor completed: %+v", st)
	}
	for c := 0; c < preemptible.NumClasses; c++ {
		if cs := st.PerClass[c]; cs.Settled() != cs.Submitted {
			t.Fatalf("class %v accounting broken after forced shutdown: %+v", preemptible.Class(c), cs)
		}
	}
	// Post-shutdown submissions are refused, not crashed.
	if _, err := s.group.Shard(0).Pool().SubmitWithOptions(func(*preemptible.Ctx) {},
		preemptible.SubmitOptions{Class: preemptible.ClassLC}, nil); !errors.Is(err, preemptible.ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}
