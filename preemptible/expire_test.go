package preemptible

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestExpireQueuedAtDequeue: work whose hard completion deadline passes
// while it waits behind a blocker is dropped at dequeue — it never
// executes, done observes ExpiredLatency, and the expiry lands in the
// ExpiredQueued bucket.
func TestExpireQueuedAtDequeue(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		<-release
	}, SubmitOptions{}, nil)
	<-started // the single worker is now occupied

	const n = 8
	var executed atomic.Int32
	ch := make(chan time.Duration, n)
	handles := make([]*TaskHandle, 0, n)
	for i := 0; i < n; i++ {
		h, err := p.SubmitWithOptions(func(ctx *Ctx) { executed.Add(1) }, SubmitOptions{
			Class:    ClassBE,
			Deadline: time.Now().Add(5 * time.Millisecond),
			Expire:   true,
		}, func(l time.Duration) { ch <- l })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	time.Sleep(20 * time.Millisecond) // let every deadline pass while queued
	close(release)

	for i := 0; i < n; i++ {
		select {
		case lat := <-ch:
			if lat != ExpiredLatency {
				t.Fatalf("done latency %v, want ExpiredLatency", lat)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("expired task never settled")
		}
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("%d doomed tasks executed, want 0", got)
	}
	for _, h := range handles {
		if got := h.State(); got != TaskExpiredQueued {
			t.Fatalf("state = %v, want TaskExpiredQueued", got)
		}
		if h.Err() != ErrExpired {
			t.Fatalf("Err() = %v, want ErrExpired", h.Err())
		}
	}
	p.Close()
	st := p.Stats()
	if st.ExpiredQueued != n || st.ExpiredExecuting != 0 {
		t.Fatalf("ExpiredQueued=%d ExpiredExecuting=%d, want %d/0", st.ExpiredQueued, st.ExpiredExecuting, n)
	}
	be := st.PerClass[ClassBE]
	if be.ExpiredQueued != n {
		t.Fatalf("per-class ExpiredQueued=%d, want %d", be.ExpiredQueued, n)
	}
	if be.Settled() != be.Submitted {
		t.Fatalf("BE conservation: settled %d != submitted %d", be.Settled(), be.Submitted)
	}
}

// TestExpireExecutingUnwindsAtSafepoint: a task already running when its
// hard deadline passes unwinds at its next Checkpoint through the
// cancel-unwind path, settling as ExpiredExecuting — and its defers run.
func TestExpireExecutingUnwindsAtSafepoint(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})

	var deferred atomic.Bool
	var reachedAfter atomic.Bool
	ch := make(chan time.Duration, 1)
	h, err := p.SubmitWithOptions(func(ctx *Ctx) {
		defer deferred.Store(true)
		deadline := time.Now().Add(10 * time.Millisecond)
		for time.Now().Before(deadline.Add(20 * time.Millisecond)) {
			ctx.Checkpoint()
		}
		reachedAfter.Store(true)
	}, SubmitOptions{
		Deadline: time.Now().Add(10 * time.Millisecond),
		Expire:   true,
	}, func(l time.Duration) { ch <- l })
	if err != nil {
		t.Fatal(err)
	}

	select {
	case lat := <-ch:
		if lat != ExpiredLatency {
			t.Fatalf("done latency %v, want ExpiredLatency", lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("expiring task never settled")
	}
	if !deferred.Load() {
		t.Fatal("task defers did not run on expiry unwind")
	}
	if reachedAfter.Load() {
		t.Fatal("task ran past its hard deadline to completion")
	}
	if got := h.State(); got != TaskExpiredExecuting {
		t.Fatalf("state = %v, want TaskExpiredExecuting", got)
	}
	if h.Err() != ErrExpired {
		t.Fatalf("Err() = %v, want ErrExpired", h.Err())
	}
	p.Close()
	st := p.Stats()
	if st.ExpiredExecuting != 1 || st.ExpiredQueued != 0 {
		t.Fatalf("ExpiredExecuting=%d ExpiredQueued=%d, want 1/0", st.ExpiredExecuting, st.ExpiredQueued)
	}
}

// TestExpireEDFFreshDropsAtDequeue: under the EDF discipline a fresh
// item popped past its hard deadline is dropped, while an unexpired
// sibling still runs.
func TestExpireEDFFreshDropsAtDequeue(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Discipline: EDF})

	started := make(chan struct{})
	release := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		<-release
	}, SubmitOptions{}, nil)
	<-started

	var doomedRan, freshRan atomic.Bool
	doomedCh := make(chan time.Duration, 1)
	freshCh := make(chan time.Duration, 1)
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) { doomedRan.Store(true) }, SubmitOptions{
		Deadline: time.Now().Add(5 * time.Millisecond),
		Expire:   true,
	}, func(l time.Duration) { doomedCh <- l }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) { freshRan.Store(true) }, SubmitOptions{
		Deadline: time.Now().Add(time.Hour),
		Expire:   true,
	}, func(l time.Duration) { freshCh <- l }); err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond)
	close(release)

	if lat := <-doomedCh; lat != ExpiredLatency {
		t.Fatalf("doomed latency %v, want ExpiredLatency", lat)
	}
	if lat := <-freshCh; lat < 0 {
		t.Fatalf("fresh task got sentinel %v, want completion", lat)
	}
	if doomedRan.Load() {
		t.Fatal("doomed EDF task executed")
	}
	if !freshRan.Load() {
		t.Fatal("unexpired EDF task did not execute")
	}
	p.Close()
}

// TestExpirePreemptedSettlesExecuting: a task preempted mid-run whose
// hard deadline passes while it waits in the preempted queue unwinds at
// the wake-up safepoint on resume — ExpiredExecuting, not a dequeue
// drop, because the work already started.
func TestExpirePreemptedSettlesExecuting(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Millisecond})

	ch := make(chan time.Duration, 1)
	h, err := p.SubmitWithOptions(func(ctx *Ctx) {
		// Yield explicitly so the task parks in the preempted queue,
		// then sleep long enough on the outside for the deadline to pass
		// before it is resumed.
		ctx.Yield()
		for {
			ctx.Checkpoint()
		}
	}, SubmitOptions{
		Deadline: time.Now().Add(15 * time.Millisecond),
		Expire:   true,
	}, func(l time.Duration) { ch <- l })
	if err != nil {
		t.Fatal(err)
	}

	select {
	case lat := <-ch:
		if lat != ExpiredLatency {
			t.Fatalf("done latency %v, want ExpiredLatency", lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("preempted task never expired")
	}
	if got := h.State(); got != TaskExpiredExecuting {
		t.Fatalf("state = %v, want TaskExpiredExecuting", got)
	}
	p.Close()
}

// TestSoftDeadlineDoesNotExpire: a Deadline without Expire keeps
// its historical soft-SLO semantics — late work still runs to
// completion.
func TestSoftDeadlineDoesNotExpire(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Discipline: EDF})

	started := make(chan struct{})
	release := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		<-release
	}, SubmitOptions{}, nil)
	<-started

	var ran atomic.Bool
	ch := make(chan time.Duration, 1)
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) { ran.Store(true) },
		SubmitOptions{Deadline: time.Now().Add(time.Millisecond)}, func(l time.Duration) { ch <- l }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	if lat := <-ch; lat < 0 {
		t.Fatalf("soft-deadline task got sentinel %v, want completion", lat)
	}
	if !ran.Load() {
		t.Fatal("late soft-deadline task did not run")
	}
	p.Close()
}

// TestSubmitWithOptionsValidation: Expire without a Deadline and a
// negative PickupTimeout are caller bugs.
func TestSubmitWithOptionsValidation(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Expire without Deadline", func() {
		p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Expire: true}, nil) //nolint:errcheck
	})
	expectPanic("negative PickupTimeout", func() {
		p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{PickupTimeout: -1}, nil) //nolint:errcheck
	})
}

// TestDrainIdleFastPath: Drain on an idle pool returns promptly (no
// deadline wait), and repeated Drain/Close calls are no-ops returning
// the first result.
func TestDrainIdleFastPath(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 4})

	if lat, _, err := p.SubmitWaitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil); err != nil || lat < 0 {
		t.Fatalf("warmup: lat=%v err=%v", lat, err)
	}

	start := time.Now()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain of idle pool: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("idle Drain took %v, want fast return", d)
	}

	// Second Drain — even with an already-expired context — must not
	// re-run shutdown or report the dead context's error: it returns the
	// first call's result.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	if err := p.Drain(expired); err != nil {
		t.Fatalf("second Drain: %v, want nil (first result)", err)
	}
	p.Close() // third shutdown: still a no-op
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil); err != ErrClosed {
		t.Fatalf("submit after Drain: %v, want ErrClosed", err)
	}
}

// TestDrainConcurrentIdempotent: many goroutines racing Drain/Close all
// observe the same single shutdown.
func TestDrainConcurrentIdempotent(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() { errs <- p.Drain(context.Background()) }()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("racing Drain: %v", err)
		}
	}
}
