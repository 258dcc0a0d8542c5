package preemptible

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
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

// TestPreemptionsCountOnlyYields: Runtime.Preemptions counts the
// quantum-expiry yields tasks took, and nothing else. Five tasks run
// past their quantum without reaching a safepoint, so they are never
// preempted; five more reach Checkpoints past their quantum and yield
// there. The runtime's count equals the yields the Fns report.
func TestPreemptionsCountOnlyYields(t *testing.T) {
	rt := newRT(t)
	const quantum = 500 * time.Microsecond
	burn := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	var fns []*Fn
	for i := 0; i < 5; i++ {
		fn, err := rt.Launch(func(*Ctx) { burn(5 * time.Millisecond) }, quantum)
		if err != nil {
			t.Fatal(err)
		}
		if !fn.Completed() || fn.Preemptions != 0 {
			t.Fatalf("safepoint-free task: state=%v preemptions=%d, want completed in one slice", fn.State(), fn.Preemptions)
		}
		fns = append(fns, fn)
	}
	for i := 0; i < 5; i++ {
		fn, err := rt.Launch(func(ctx *Ctx) {
			for j := 0; j < 10; j++ {
				burn(200 * time.Microsecond)
				ctx.Checkpoint()
			}
		}, quantum)
		if err != nil {
			t.Fatal(err)
		}
		for !fn.Completed() {
			fn.Resume(quantum)
		}
		fns = append(fns, fn)
	}
	yields := 0
	for _, fn := range fns {
		yields += fn.Preemptions
	}
	if yields == 0 {
		t.Fatal("no task yielded at a Checkpoint past its quantum")
	}
	if got := rt.Preemptions(); got != uint64(yields) {
		t.Fatalf("rt.Preemptions() = %d, want the %d quantum-expiry yields the Fns took", got, yields)
	}
}

func TestPoolSurvivesTimerStall(t *testing.T) {
	// Spinning tasks that outnumber the workers all complete, their
	// quanta enforced at their own Checkpoints: no timer goroutine has
	// to run for a task to be preempted.
	rt := newRT(t)
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
	waitUntil(t, 10*time.Second, func() bool { return done.Load() == tasks },
		"all Fns to complete")
	p.Close()
	st := p.Stats()
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	if st.Preemptions == 0 {
		t.Fatal("quanta were not enforced")
	}
}

func TestLaunchCloseRace(t *testing.T) {
	// Hammer concurrent Launch and Close: Launch must either win (task
	// runs) or lose with ErrClosed — never panic, never leave a context
	// parked on the closed runtime's free list, never leave a context
	// goroutine behind.
	testutil.CheckGoroutineLeaks(t)
	for iter := 0; iter < 30; iter++ {
		rt, err := New(Config{})
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
		if n := len(rt.free[ClassLC]); n != 0 {
			t.Fatalf("iter %d: %d contexts parked after Close", iter, n)
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
