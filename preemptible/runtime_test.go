package preemptible

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// waitUntil polls cond every millisecond until it holds or the deadline
// passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func TestWatchdogRestartsStalledTimer(t *testing.T) {
	// Wedge the timer service with a chaos clock and verify the
	// watchdog: detects the stall, marks the runtime Degraded, restarts
	// the loop with a fresh ticker, and — once the stall lifts —
	// timer-delivered preemption resumes. Delivery is probed with a
	// blocked Fn that never checkpoints: only the timer loop can raise
	// its preemption flag, so the flag transitioning 0→1 is proof the
	// restarted loop is polling again (this holds even on GOMAXPROCS=1,
	// where spinning tasks usually beat the timer to the flag).
	ck := chaos.NewClock()
	rt, err := New(Config{
		Resolution:       200 * time.Microsecond,
		Clock:            ck,
		WatchdogInterval: time.Millisecond,
		StallThreshold:   4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ck.Stall()
	waitUntil(t, 2*time.Second, func() bool { return rt.TimerRestarts() > 0 },
		"watchdog restart")
	if !rt.Degraded() {
		t.Fatal("runtime not Degraded after watchdog detected the stall")
	}
	// Let the killed loop generation drain any buffered tick.
	time.Sleep(5 * time.Millisecond)

	ctxCh := make(chan *Ctx, 1)
	release := make(chan struct{})
	go rt.Launch(func(ctx *Ctx) { //nolint:errcheck
		ctxCh <- ctx
		<-release
	}, 100*time.Microsecond)
	ctx := <-ctxCh

	time.Sleep(10 * time.Millisecond)
	if ctx.Preempted() {
		t.Fatal("preemption flag raised while the timer service was stalled")
	}

	ck.Resume()
	waitUntil(t, 2*time.Second, func() bool { return !rt.Degraded() },
		"degraded flag to clear after stall lifted")
	waitUntil(t, 2*time.Second, ctx.Preempted,
		"timer-delivered preemption to resume after restart")
	close(release)

	if rt.TimerPreemptions() == 0 {
		t.Fatal("timer flag counter did not move")
	}
	if ck.Tickers() < 2 {
		t.Fatalf("watchdog restart did not create a fresh ticker: %d", ck.Tickers())
	}
}

func TestPoolSurvivesTimerStall(t *testing.T) {
	// A pool mid-flight across a timer stall + watchdog restart loses
	// nothing: every Fn completes, cooperatively if need be.
	ck := chaos.NewClock()
	rt, err := New(Config{
		Resolution:       200 * time.Microsecond,
		Clock:            ck,
		WatchdogInterval: time.Millisecond,
		StallThreshold:   4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	p := NewPool(rt, PoolConfig{Workers: 2, Quantum: 100 * time.Microsecond})
	spin := func(ctx *Ctx) {
		for end := time.Now().Add(2 * time.Millisecond); time.Now().Before(end); {
			busy := time.Now().Add(300 * time.Microsecond)
			for time.Now().Before(busy) {
			}
			ctx.Checkpoint()
		}
	}
	var done atomic.Uint64
	const tasks = 16
	for i := 0; i < tasks; i++ {
		p.SubmitWithOptions(spin, SubmitOptions{}, func(time.Duration) { done.Add(1) })
	}

	ck.Stall()
	waitUntil(t, 2*time.Second, func() bool { return rt.TimerRestarts() > 0 },
		"watchdog restart")
	ck.Resume()

	waitUntil(t, 10*time.Second, func() bool { return done.Load() == tasks },
		"all Fns to complete across the stall")
	p.Close()
	st := p.Stats()
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	if st.Preemptions == 0 {
		t.Fatal("quanta were not enforced at all during the stall")
	}
}

func TestWatchdogQuietOnHealthyTimer(t *testing.T) {
	rt, err := New(Config{
		Resolution:       100 * time.Microsecond,
		WatchdogInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	time.Sleep(30 * time.Millisecond)
	if n := rt.TimerRestarts(); n != 0 {
		t.Fatalf("watchdog restarted a healthy timer %d times", n)
	}
	if rt.Degraded() {
		t.Fatal("healthy runtime reports Degraded")
	}
}

func TestLaunchCloseRace(t *testing.T) {
	// Hammer concurrent Launch and Close: Launch must either win (task
	// runs) or lose with ErrClosed — never panic, never leave a ctx
	// registered with the dead timer service.
	for iter := 0; iter < 30; iter++ {
		rt, err := New(Config{Resolution: 50 * time.Microsecond, WatchdogInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		var launched, ran atomic.Uint64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					fn, err := rt.Launch(func(ctx *Ctx) { ran.Add(1) }, time.Millisecond)
					if err != nil {
						if err != ErrClosed {
							t.Errorf("Launch: %v", err)
						}
						return
					}
					launched.Add(1)
					if !fn.Completed() {
						fn.Resume(time.Millisecond)
					}
				}
			}()
		}
		close(start)
		rt.Close()
		wg.Wait()
		if n := rt.registered(); n != 0 {
			t.Fatalf("iter %d: %d ctxs leaked registered after Close", iter, n)
		}
		if launched.Load() != ran.Load() {
			t.Fatalf("iter %d: launched %d but ran %d", iter, launched.Load(), ran.Load())
		}
	}
}

func TestPoolDegradedRunsCooperatively(t *testing.T) {
	// Close the runtime under a live pool: Launch starts failing with
	// ErrClosed, and the pool's graceful-degradation path runs every
	// task cooperatively instead of losing it.
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(rt, PoolConfig{Workers: 2})
	rt.Close()

	const tasks = 20
	var done atomic.Uint64
	for i := 0; i < tasks; i++ {
		p.SubmitWithOptions(func(ctx *Ctx) {
			ctx.Checkpoint() // must be a no-op, not a deadlock
			ctx.Yield()      // likewise
			done.Add(1)
		}, SubmitOptions{}, func(time.Duration) {})
	}
	waitUntil(t, 2*time.Second, func() bool { return done.Load() == tasks },
		"degraded tasks to finish")
	p.Close()
	st := p.Stats()
	if st.Completed != tasks || st.DegradedRuns != tasks {
		t.Fatalf("completed=%d degradedRuns=%d, want %d/%d", st.Completed, st.DegradedRuns, tasks, tasks)
	}
}

// TestPoolSubmitTimeoutSheds: a task no worker reaches before its
// pickup deadline is shed, never executed — under either dispatch
// order, since the check sits in the worker, not in the order.
func TestPoolSubmitTimeoutSheds(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Discipline
	}{{"FIFO", FIFO}, {"EDF", EDF}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t)
			p := NewPool(rt, PoolConfig{Workers: 1, Discipline: tc.d})
			defer p.Close()

			// Block the single worker on a task that holds its slot until
			// released (no checkpoints, so no preemption).
			release := make(chan struct{})
			blocked := make(chan struct{})
			p.SubmitWithOptions(func(*Ctx) {
				close(blocked)
				<-release
			}, SubmitOptions{}, nil)
			<-blocked

			const shedN = 5
			lats := make(chan time.Duration, shedN)
			var handles []*TaskHandle
			for i := 0; i < shedN; i++ {
				h, _ := p.SubmitWithOptions(func(*Ctx) { t.Error("shed task executed") },
					SubmitOptions{PickupTimeout: 5 * time.Millisecond, Deadline: time.Now().Add(time.Hour)},
					func(l time.Duration) { lats <- l })
				handles = append(handles, h)
			}
			time.Sleep(20 * time.Millisecond) // let every pickup deadline lapse
			close(release)

			for i := 0; i < shedN; i++ {
				if l := <-lats; l != ShedLatency {
					t.Fatalf("shed task reported latency %v, want ShedLatency", l)
				}
			}
			for _, h := range handles {
				if got := h.State(); got != TaskShed {
					t.Fatalf("state %v, want shed", got)
				}
			}
			waitUntil(t, time.Second, func() bool { return p.Stats().Shed == shedN },
				"shed counter")
			st := p.Stats()
			if st.Shed != shedN || st.Completed != 1 {
				t.Fatalf("shed=%d completed=%d, want %d/1", st.Shed, st.Completed, shedN)
			}
		})
	}
}
