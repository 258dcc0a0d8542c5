package preemptible

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestLaunchContainsPanic: a panicking task ends in StateFailed with
// the panic value and stack captured; the runtime stays healthy.
func TestLaunchContainsPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newRT(t)
	fn, err := rt.Launch(func(ctx *Ctx) {
		panic("kaboom")
	}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !fn.Failed() {
		t.Fatalf("state = %v, want failed", fn.State())
	}
	if fn.Completed() {
		t.Fatal("failed Fn reports Completed")
	}
	terr := fn.Err()
	if terr == nil {
		t.Fatal("Err() = nil on failed Fn")
	}
	if terr.Value != "kaboom" {
		t.Fatalf("captured panic value %v, want kaboom", terr.Value)
	}
	if !bytes.Contains(terr.Stack, []byte("TestLaunchContainsPanic")) {
		t.Fatal("captured stack does not include the panic site")
	}
	if got, want := terr.Error(), "preemptible: task panicked: kaboom"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	if n := len(rt.free[ClassLC]); n != 1 {
		t.Fatalf("%d contexts parked after one failed Fn, want its context back on the free list", n)
	}
	// The runtime is unharmed: a fresh Launch works.
	fn2, err := rt.Launch(func(ctx *Ctx) {}, time.Millisecond)
	if err != nil || !fn2.Completed() {
		t.Fatalf("Launch after contained panic: fn=%v err=%v", fn2.State(), err)
	}
}

// TestPanicAfterPreemption: a task that panics on a later quantum (after
// being preempted and resumed) still fails cleanly.
func TestPanicAfterPreemption(t *testing.T) {
	rt := newRT(t)
	hits := 0
	fn, err := rt.Launch(func(ctx *Ctx) {
		hits++
		ctx.Yield()
		hits++
		panic("second quantum")
	}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Failed() || fn.Completed() {
		t.Fatalf("state after first yield = %v, want preempted", fn.State())
	}
	fn.Resume(time.Millisecond)
	if !fn.Failed() {
		t.Fatalf("state = %v, want failed", fn.State())
	}
	if hits != 2 {
		t.Fatalf("task body ran %d segments, want 2", hits)
	}
	if fn.Err() == nil || fn.Err().Value != "second quantum" {
		t.Fatalf("Err() = %v", fn.Err())
	}
}

// TestResumeFailedFnPanics: Resume on a failed Fn is a scheduler bug
// and panics with a distinct message.
func TestResumeFailedFnPanics(t *testing.T) {
	rt := newRT(t)
	fn, err := rt.Launch(func(ctx *Ctx) { panic("x") }, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !fn.Failed() {
		t.Fatalf("state = %v, want failed", fn.State())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Resume of failed Fn did not panic")
		}
		if r != "preemptible: Resume of failed Fn" {
			t.Fatalf("panic message %q", r)
		}
	}()
	fn.Resume(time.Millisecond)
}

// TestPoolContainsPanics: panicking tasks settle as Failed — done
// observes FailedLatency, the handle carries the TaskError, counters
// conserve work — and the workers survive to run later tasks.
func TestPoolContainsPanics(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})
	defer p.Close()

	ch := make(chan time.Duration, 1)
	h, err := p.SubmitWithOptions(func(ctx *Ctx) { panic(errors.New("bad block")) }, SubmitOptions{Class: ClassBE},
		func(l time.Duration) { ch <- l })
	if err != nil {
		t.Fatal(err)
	}
	if lat := <-ch; lat != FailedLatency {
		t.Fatalf("done latency %v, want FailedLatency", lat)
	}
	if got := h.State(); got != TaskFailed {
		t.Fatalf("state %v, want failed", got)
	}
	var terr *TaskError
	if !errors.As(h.Err(), &terr) {
		t.Fatalf("handle Err %v, want *TaskError", h.Err())
	}
	if fmt.Sprint(terr.Value) != "bad block" {
		t.Fatalf("captured value %v", terr.Value)
	}
	if h.Cancel() {
		t.Fatal("Cancel accepted on a failed task")
	}

	// Workers unharmed: ordinary work still completes on both classes.
	if lat, _, err := p.SubmitWaitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil); err != nil || lat < 0 {
		t.Fatalf("pool broken after contained panic: lat=%v err=%v", lat, err)
	}

	st := p.Stats()
	if st.Failed != 1 || st.PerClass[ClassBE].Failed != 1 {
		t.Fatalf("failure counters: total=%d be=%d", st.Failed, st.PerClass[ClassBE].Failed)
	}
	be := st.PerClass[ClassBE]
	if be.Settled() != be.Submitted {
		t.Fatalf("BE conservation broken: %+v", be)
	}
}

// TestPoolPanicSitesProperty is the fuzzing matrix over panic sites:
// tasks panic before their first Checkpoint, mid-loop between
// safepoints, or inside a defer, interleaved with healthy tasks. After
// the storm the pool's workers must be intact, no context may be left
// holding a task, and every non-failed task must have completed.
func TestPoolPanicSitesProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutineLeaks(t) // a context still holding a task outlives Close
			rt := newRT(t)
			p := NewPool(rt, PoolConfig{Workers: 4, Quantum: 100 * time.Microsecond})
			defer p.Close()
			rng := rand.New(rand.NewSource(seed))
			const n = 200
			var completed, failed atomic.Int64
			var wg sync.WaitGroup
			wantFail := 0
			for i := 0; i < n; i++ {
				site := rng.Intn(5) // 0,1 healthy; 2,3,4 panic sites
				var task Task
				switch site {
				case 0: // healthy, short
					task = func(ctx *Ctx) { ctx.Checkpoint() }
				case 1: // healthy, multi-quantum
					task = func(ctx *Ctx) {
						for j := 0; j < 50; j++ {
							ctx.Checkpoint()
						}
					}
				case 2: // panic before first Checkpoint
					wantFail++
					task = func(ctx *Ctx) { panic("pre-checkpoint") }
				case 3: // panic mid-loop, after several safepoints
					wantFail++
					task = func(ctx *Ctx) {
						for j := 0; j < 10; j++ {
							ctx.Checkpoint()
						}
						panic("mid-loop")
					}
				case 4: // panic inside a defer (after a normal-looking body)
					wantFail++
					task = func(ctx *Ctx) {
						defer func() { panic("in defer") }()
						ctx.Checkpoint()
					}
				}
				wg.Add(1)
				if _, err := p.SubmitWithOptions(task, SubmitOptions{}, func(l time.Duration) {
					if l == FailedLatency {
						failed.Add(1)
					} else if l >= 0 {
						completed.Add(1)
					}
					wg.Done()
				}); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			wg.Wait()
			if got := failed.Load(); got != int64(wantFail) {
				t.Fatalf("failed = %d, want %d", got, wantFail)
			}
			if got := completed.Load(); got != int64(n-wantFail) {
				t.Fatalf("completed = %d, want %d", got, n-wantFail)
			}
			// Worker count intact: all workers still pull work (more
			// concurrent barrier tasks than any strict subset could run).
			var barrier sync.WaitGroup
			release := make(chan struct{})
			var entered atomic.Int64
			for i := 0; i < 4; i++ {
				barrier.Add(1)
				if _, err := p.SubmitWithOptions(func(ctx *Ctx) {
					entered.Add(1)
					<-release
				}, SubmitOptions{}, func(time.Duration) { barrier.Done() }); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for entered.Load() < 4 {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of 4 workers alive after panic storm", entered.Load())
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			barrier.Wait()
			st := p.Stats()
			if st.Submitted != st.Completed+st.Failed {
				t.Fatalf("conservation broken: %+v", st)
			}
		})
	}
}

// TestPoolEDFContainsPanics: the EDF discipline settles failures the
// same way (heap stays consistent, later deadlines still run).
func TestPoolEDFContainsPanics(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Discipline: EDF})
	defer p.Close()
	now := time.Now()
	ch := make(chan time.Duration, 2)
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) { panic("edf") }, SubmitOptions{Deadline: now.Add(time.Millisecond)},
		func(l time.Duration) { ch <- l }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Deadline: now.Add(time.Hour)},
		func(l time.Duration) { ch <- l }); err != nil {
		t.Fatal(err)
	}
	first, second := <-ch, <-ch
	if first != FailedLatency {
		t.Fatalf("earliest-deadline task latency %v, want FailedLatency", first)
	}
	if second < 0 {
		t.Fatalf("later task latency %v, want completion", second)
	}
}

// TestDrainCompletesInFlight: Drain with headroom lets queued and
// running work finish; no cancellation happens.
func TestDrainCompletesInFlight(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2, Quantum: time.Millisecond})
	var done atomic.Int64
	for i := 0; i < 40; i++ {
		if _, err := p.SubmitWithOptions(func(ctx *Ctx) {
			ctx.Checkpoint()
			done.Add(1)
		}, SubmitOptions{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if done.Load() != 40 {
		t.Fatalf("Drain dropped work: %d of 40 done", done.Load())
	}
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil); err != ErrClosed {
		t.Fatalf("submit after Drain: %v, want ErrClosed", err)
	}
	st := p.Stats()
	if st.Cancelled() != 0 {
		t.Fatalf("graceful drain cancelled %d tasks", st.Cancelled())
	}
}

// TestDrainDeadlineCancelsStragglers: when the deadline fires, queued
// work is evicted and running work unwinds at its next safepoint; Drain
// returns ctx.Err() and every done callback has fired.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	rt := newRT(t)
	// A one-second quantum keeps the running straggler on the sole
	// worker (no preemption), so the queued stragglers stay queued.
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	lats := make(chan time.Duration, 3)
	// Running straggler: holds the only worker, checkpoints while
	// blocked so the post-deadline cancel can unwind it.
	if _, err := p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		for {
			select {
			case <-release:
				return
			default:
			}
			ctx.Checkpoint()
		}
	}, SubmitOptions{}, func(l time.Duration) { lats <- l }); err != nil {
		t.Fatal(err)
	}
	<-started
	// Queued stragglers: never reach a worker before the deadline.
	for i := 0; i < 2; i++ {
		if _, err := p.SubmitWithOptions(func(ctx *Ctx) { t.Error("queued straggler ran") }, SubmitOptions{},
			func(l time.Duration) { lats <- l }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want DeadlineExceeded", err)
	}
	for i := 0; i < 3; i++ {
		if l := <-lats; l != CancelledLatency {
			t.Fatalf("straggler %d latency %v, want CancelledLatency", i, l)
		}
	}
	st := p.Stats()
	if st.CancelledQueued != 2 || st.CancelledExecuting != 1 {
		t.Fatalf("cancel buckets: %+v", st)
	}
}

// TestDrainThenCloseIdempotent: Close after Drain (and double Close)
// is safe.
func TestDrainThenCloseIdempotent(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Adaptive: &AdaptiveConfig{
		LHigh: 1e12, LLow: 1e11,
		K1: time.Millisecond, K2: time.Millisecond, K3: time.Millisecond,
		TMin: time.Millisecond, TMax: 50 * time.Millisecond,
		QThreshold: 1 << 30, Period: 5 * time.Millisecond,
	}})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
}
