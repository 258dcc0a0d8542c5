package preemptible

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestWatchdogEscalatesToTerminal(t *testing.T) {
	// A persistent timer fault (chaos clock stalled forever) must drive
	// the watchdog through exactly MaxTimerRestarts futile restarts and
	// then to terminal degradation: no more restarts, Degraded stays
	// true permanently, and Terminal reports the escalation.
	ck := chaos.NewClock()
	rt, err := New(Config{
		Resolution:       200 * time.Microsecond,
		Clock:            ck,
		WatchdogInterval: time.Millisecond,
		StallThreshold:   4 * time.Millisecond,
		MaxTimerRestarts: 3,
		RestartWindow:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ck.Stall() // never resumed: the fault is persistent
	waitUntil(t, 5*time.Second, rt.Terminal, "watchdog escalation to terminal")
	if !rt.Degraded() {
		t.Fatal("terminal runtime does not report Degraded")
	}
	if n := rt.TimerRestarts(); n != 3 {
		t.Fatalf("escalated after %d restarts, want exactly MaxTimerRestarts=3", n)
	}

	// Even if the tick source comes back, a terminal runtime must not
	// resurrect: the decision is final (zombie generations are killed,
	// Degraded never clears, the restart counter never moves again).
	restarts := rt.TimerRestarts()
	ck.Resume()
	time.Sleep(20 * time.Millisecond)
	if !rt.Terminal() || !rt.Degraded() {
		t.Fatal("terminal state cleared after the stall lifted")
	}
	if n := rt.TimerRestarts(); n != restarts {
		t.Fatalf("watchdog restarted after terminal (%d → %d)", restarts, n)
	}

	// Correctness survives: quanta are enforced cooperatively at
	// safepoints, so pool work still completes and still preempts.
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 100 * time.Microsecond})
	if lat, _, _ := p.SubmitWaitWithOptions(func(ctx *Ctx) { spin(ctx, 2*time.Millisecond) }, SubmitOptions{}, nil); lat < 0 {
		t.Fatalf("task on terminal runtime reported %v", lat)
	}
	p.Close()
	if p.Stats().Completed != 1 {
		t.Fatalf("stats: %+v", p.Stats())
	}
}

func TestWatchdogTransientStallsDoNotEscalate(t *testing.T) {
	// Restarts spread thinner than MaxTimerRestarts per window never
	// escalate: each transient stall is cured by its restart (the chaos
	// clock resumes), so the within-window count stays below the bound.
	ck := chaos.NewClock()
	rt, err := New(Config{
		Resolution:       200 * time.Microsecond,
		Clock:            ck,
		WatchdogInterval: time.Millisecond,
		StallThreshold:   4 * time.Millisecond,
		MaxTimerRestarts: 2,
		RestartWindow:    40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for i := 0; i < 3; i++ {
		before := rt.TimerRestarts()
		ck.Stall()
		waitUntil(t, 2*time.Second, func() bool { return rt.TimerRestarts() > before },
			"watchdog restart")
		ck.Resume()
		waitUntil(t, 2*time.Second, func() bool { return !rt.Degraded() },
			"degraded to clear after transient stall")
		// Let the escalation window age past this restart before the
		// next fault.
		time.Sleep(50 * time.Millisecond)
	}
	if rt.Terminal() {
		t.Fatal("transient stalls escalated to terminal")
	}
	if n := rt.TimerRestarts(); n < 3 {
		t.Fatalf("expected 3 restarts, got %d", n)
	}
}
