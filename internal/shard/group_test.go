package shard

import (
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/preemptible"
)

func newTestRuntime(t *testing.T) *preemptible.Runtime {
	t.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func waitFor(t *testing.T, within time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", within, msg)
}

// fastSupervise is a tight heartbeat config for tests: detection within
// ~tens of milliseconds, drains bounded at 100ms.
func fastSupervise() SuperviseConfig {
	return SuperviseConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		MissThreshold:     2,
		RestartDrain:      100 * time.Millisecond,
	}
}

func TestGroupServesAllShards(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 3, Config{Workers: 1}, SuperviseConfig{Disabled: true})
	defer g.Close()
	for i := 0; i < g.N(); i++ {
		ran := false
		res := g.Do(i, preemptible.ClassLC, func(*preemptible.Ctx) { ran = true }, DoOptions{})
		if res.Outcome != OK || !ran {
			t.Fatalf("shard %d: outcome %v ran=%v", i, res.Outcome, ran)
		}
	}
	for i := 0; i < g.N(); i++ {
		cs, _ := g.Shard(i).Snapshot(nil)
		if c := cs[preemptible.ClassLC]; c.Requests != 1 || c.Completed != 1 {
			t.Fatalf("shard %d counters: %+v", i, c)
		}
	}
}

// TestSupervisorRestartsWedgedShard is the core bulkhead claim: wedge
// one shard, and the supervisor detects it via missed heartbeats,
// drains it, rebuilds it, and re-admits it within the heartbeat-derived
// bound — while the sibling shards never leave Healthy and never fail a
// request.
func TestSupervisorRestartsWedgedShard(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 3, Config{Workers: 1}, fastSupervise())
	defer g.Close()

	stop := make(chan struct{})
	sibErrs := make(chan string, 16)
	go func() { // continuous LC traffic on the siblings during the outage
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, i := range []int{0, 2} {
				if res := g.Do(i, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != OK {
					select {
					case sibErrs <- res.Outcome.String():
					default:
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	g.KillShard(1)
	// The Restarting window itself can be too brief to sample (the drain
	// releases wedged workers almost instantly), so recovery is observed
	// through the generation bump a rebuild always leaves behind.
	waitFor(t, 3*time.Second, func() bool {
		return g.Shard(1).Health() == Healthy && g.Shard(1).Generation() > 0
	}, "wedged shard never detected and rebuilt")
	recovered := time.Since(start)

	// During an outage, the shard's keys answer Unavailable — explicitly,
	// immediately, without touching a pool. Hold the health state open by
	// hand to observe the window deterministically.
	if !g.Shard(1).casHealth(Healthy, Restarting) {
		t.Fatal("could not force Restarting for the outage-window check")
	}
	if res := g.Do(1, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != Unavailable {
		t.Fatalf("request on restarting shard: outcome %v, want Unavailable", res.Outcome)
	}
	if !g.Shard(1).casHealth(Restarting, Healthy) {
		t.Fatal("could not release the forced Restarting state")
	}

	// Recovery bound: detection (threshold × interval + timeout) + the
	// restart drain + rebuild, with generous slack for CI.
	scfg := fastSupervise()
	bound := time.Duration(scfg.MissThreshold+2)*scfg.HeartbeatInterval +
		scfg.HeartbeatTimeout + scfg.RestartDrain + time.Second
	if recovered > bound {
		t.Fatalf("recovery took %v, over bound %v", recovered, bound)
	}
	if got := g.Restarts(1); got != 1 {
		t.Fatalf("restarts(1) = %d, want 1", got)
	}

	// Rebuilt shard serves again.
	if res := g.Do(1, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != OK {
		t.Fatalf("rebuilt shard: outcome %v, want OK", res.Outcome)
	}
	close(stop)
	select {
	case e := <-sibErrs:
		t.Fatalf("sibling shard failed a request during the outage: %s", e)
	default:
	}
	for _, i := range []int{0, 2} {
		if h := g.Shard(i).Health(); h != Healthy {
			t.Fatalf("sibling %d left Healthy: %v", i, h)
		}
		if g.Restarts(i) != 0 {
			t.Fatalf("sibling %d was restarted", i)
		}
	}
}

// TestRestartBudgetEscalatesToDead: a shard that keeps getting killed
// exhausts MaxRestarts within RestartWindow and is retired
// permanently.
func TestRestartBudgetEscalatesToDead(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	scfg := fastSupervise()
	scfg.MaxRestarts = 2
	scfg.RestartWindow = time.Minute
	g := NewGroup(rt, 2, Config{Workers: 1}, scfg)
	defer g.Close()

	for round := 0; round < 2; round++ {
		gen := g.Shard(0).Generation()
		g.KillShard(0)
		waitFor(t, 3*time.Second, func() bool {
			return g.Shard(0).Health() == Healthy && g.Shard(0).Generation() > gen
		}, "restart round did not complete")
	}
	// Third failure: budget spent → terminal Dead.
	g.KillShard(0)
	waitFor(t, 3*time.Second, func() bool { return g.Shard(0).Health() == Dead },
		"flapping shard never escalated to Dead")
	if got := g.Restarts(0); got != 2 {
		t.Fatalf("restarts = %d, want exactly the budget 2", got)
	}
	if res := g.Do(0, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != Unavailable {
		t.Fatalf("dead shard outcome %v, want Unavailable", res.Outcome)
	}
	// The sibling is untouched and still serving.
	if h := g.Shard(1).Health(); h != Healthy {
		t.Fatalf("sibling health %v", h)
	}
	if res := g.Do(1, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != OK {
		t.Fatalf("sibling outcome %v", res.Outcome)
	}
	// Dead is sticky: give the supervisor a few ticks to (wrongly) try a
	// repair, then re-check.
	time.Sleep(5 * scfg.HeartbeatInterval)
	if h := g.Shard(0).Health(); h != Dead {
		t.Fatalf("dead shard resurrected: %v", h)
	}
}

// TestCountersSurviveRestart: shard counters and accumulated pool stats
// are conserved across a drain + rebuild — nothing a restart throws
// away is a counter.
func TestCountersSurviveRestart(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 2, Config{Workers: 1}, SuperviseConfig{Disabled: true, RestartDrain: 100 * time.Millisecond})
	defer g.Close()
	s := g.Shard(0)

	const before, after = 7, 5
	for i := 0; i < before; i++ {
		if res := g.Do(0, preemptible.ClassLC, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != OK {
			t.Fatalf("op %d: %v", i, res.Outcome)
		}
	}
	g.RestartShard(0)
	waitFor(t, 2*time.Second, func() bool { return s.Health() == Healthy && s.Generation() == 1 },
		"manual restart did not complete")
	for i := 0; i < after; i++ {
		if res := g.Do(0, preemptible.ClassBE, func(*preemptible.Ctx) {}, DoOptions{}); res.Outcome != OK {
			t.Fatalf("post-restart op %d: %v", i, res.Outcome)
		}
	}

	c, _ := s.Snapshot(nil)
	if lc := c[preemptible.ClassLC]; lc.Requests != before || lc.Completed != before {
		t.Fatalf("LC counters lost in restart: %+v", lc)
	}
	if be := c[preemptible.ClassBE]; be.Requests != after || be.Completed != after {
		t.Fatalf("BE counters wrong: %+v", be)
	}
	// Pool stats accumulate across generations: with the supervisor off
	// no probes pollute them, so the totals are exact.
	st := s.Stats()
	if st.Submitted != before+after || st.Completed != before+after {
		t.Fatalf("pool stats lost in restart: submitted %d completed %d, want %d",
			st.Submitted, st.Completed, before+after)
	}
	if pc := st.PerClass[preemptible.ClassLC]; pc.Completed != before {
		t.Fatalf("per-class LC completed %d, want %d", pc.Completed, before)
	}
	if pc := st.PerClass[preemptible.ClassBE]; pc.Completed != after {
		t.Fatalf("per-class BE completed %d, want %d", pc.Completed, after)
	}
	// Group aggregation equals the per-shard sum.
	agg := g.PoolStats()
	want := g.Shard(0).Stats().Submitted + g.Shard(1).Stats().Submitted
	if agg.Submitted != want {
		t.Fatalf("group submitted %d, want sum over shards %d", agg.Submitted, want)
	}
}

// TestKeyedRoutingUnaffectedByOutage: a key's shard assignment is
// identical before, during, and after its shard's outage — bulkhead
// routing never smears a dead shard's keys onto siblings.
func TestKeyedRoutingUnaffectedByOutage(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newTestRuntime(t)
	g := NewGroup(rt, 3, Config{Workers: 1}, SuperviseConfig{Disabled: true, RestartDrain: 50 * time.Millisecond})
	defer g.Close()
	key := []byte("pinned-key")
	home := g.Route(key)
	g.RestartShard(home)
	if got := g.Route(key); got != home {
		t.Fatalf("route moved during outage: %d → %d", home, got)
	}
	waitFor(t, 2*time.Second, func() bool { return g.Shard(home).Health() == Healthy }, "restart")
	if got := g.Route(key); got != home {
		t.Fatalf("route moved after recovery: %d → %d", home, got)
	}
}

// TestAllocBudgetGroupDo: an admitted request with an empty task goes
// through the shard's gates, the pool's synchronous entry and a launch
// on the worker's spare context without allocating (14 before the
// context free list, and the issue that introduced it allowed 3).
func TestAllocBudgetGroupDo(t *testing.T) {
	rt := newTestRuntime(t)
	g := NewGroup(rt, 1, Config{Workers: 1, RequestTimeout: time.Second}, SuperviseConfig{Disabled: true})
	defer g.Close()
	task := func(*preemptible.Ctx) {}
	opts := DoOptions{Deadline: time.Now().Add(time.Hour)}
	testutil.AllocBudget(t, "Group.Do", 0, func() {
		if res := g.Do(0, preemptible.ClassLC, task, opts); res.Outcome != OK {
			t.Fatalf("outcome %v", res.Outcome)
		}
	})
}
