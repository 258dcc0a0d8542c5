package preemptible

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// reuseKind is one task shape of the reuse property test's generator.
type reuseKind int

const (
	kindComplete        reuseKind = iota // n checkpoints, returns
	kindYield                            // preempted 1–5 times, returns
	kindCancelQueued                     // cancelled before any worker reaches it
	kindCancelRunning                    // cancelled while it spins on Checkpoint
	kindCancelPreempted                  // cancelled while it bounces through the preempted list
	kindExpireQueued                     // hard deadline passes while it is queued
	kindExpireRunning                    // hard deadline passes while it runs (or still queued)
	kindPanic                            // panics at one of TestPoolPanicSitesProperty's sites
	kindWait                             // SubmitWaitWithOptions: a recycled record
	numReuseKinds
)

// reuseTask is the test's own record of one submission: what it asked
// for, and what the task saw on the context it was handed.
type reuseTask struct {
	kind  reuseKind
	class Class
	n     int // checkpoints (complete) or yields (yield, wait)
	h     *TaskHandle

	ran     atomic.Bool
	started chan struct{} // cancel kinds: closed once the entry check passed
	ctx     *Ctx          // the context it ran on
	useSeq  int           // how many tasks ctx had served before this one
	lat     time.Duration
}

// TestContextReuseProperty pushes a seeded mix of 30 000 tasks — they
// complete, are preempted 1–5 times, are cancelled queued, executing
// and preempted, expire queued and executing, or panic — through a
// 2-worker pool whose few dozen contexts each serve hundreds of them, and
// checks what reuse could break: every task enters on a zeroed context,
// every submission settles as its own kind (per-class conservation
// included), and a handle and the Fn behind it still report their own
// task's outcome after the context has served ≥ 100 later tasks.
// Deleting any one reset in Runtime.start fails it.
func TestContextReuseProperty(t *testing.T) {
	// A context's last ~100 tasks cannot be checked after 100 reuses,
	// so the checked share grows as the contexts get fewer. They number
	// the tasks live at once — about a fifth of a batch waits in the
	// preempted list — so batches are kept small and many.
	const (
		batches   = 240
		batchSize = 125
		workers   = 2
	)
	testutil.CheckGoroutineLeaks(t) // a context still holding a task outlives Close
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: workers, Quantum: time.Second})
	defer p.Close()
	rng := rand.New(rand.NewSource(17))

	var (
		mu     sync.Mutex
		served = make(map[*Ctx]int) // tasks each context has served
		stuck  atomic.Bool          // a task outlived its cancel or deadline: stop waiting for the rest
		all    []*reuseTask
	)
	// enter is every task body's first statement: the context must look
	// as if no task had ever run on it, with the deadline word armed for
	// this task's slice.
	enter := func(ctx *Ctx, rec *reuseTask) {
		if ctx.Deadline().IsZero() || ctx.Cancelled() || ctx.CancelUnwound() || ctx.DeadlineExpired() ||
			ctx.Checkpoints() != 0 || ctx.failure != nil || ctx.coop {
			t.Errorf("%v task entered a dirty context: deadline=%v cancelled=%v unwound=%v expired=%v checkpoints=%d failure=%v",
				rec.kind, ctx.Deadline(), ctx.Cancelled(), ctx.CancelUnwound(), ctx.DeadlineExpired(), ctx.Checkpoints(), ctx.failure)
		}
		if ctx.class != rec.class {
			t.Errorf("%v task of class %v entered a %v context", rec.kind, rec.class, ctx.class)
		}
		rec.ran.Store(true)
		mu.Lock()
		rec.ctx, rec.useSeq = ctx, served[ctx]
		served[ctx]++
		mu.Unlock()
	}
	body := func(rec *reuseTask) Task {
		switch rec.kind {
		case kindComplete:
			return func(ctx *Ctx) {
				enter(ctx, rec)
				for i := 0; i < rec.n; i++ {
					ctx.Checkpoint()
				}
			}
		case kindYield, kindWait:
			return func(ctx *Ctx) {
				enter(ctx, rec)
				for i := 0; i < rec.n; i++ {
					ctx.Yield()
				}
			}
		case kindCancelRunning, kindExpireRunning:
			return func(ctx *Ctx) {
				enter(ctx, rec)
				if rec.started != nil {
					close(rec.started)
				}
				for end := time.Now().Add(2 * time.Second); !stuck.Load() && time.Now().Before(end); {
					ctx.Checkpoint() // unwinds here once cancelled or expired
					time.Sleep(20 * time.Microsecond)
				}
				stuck.Store(true)
				t.Errorf("%v task was never unwound", rec.kind)
			}
		case kindCancelPreempted:
			return func(ctx *Ctx) {
				enter(ctx, rec)
				close(rec.started)
				for end := time.Now().Add(2 * time.Second); !stuck.Load() && time.Now().Before(end); {
					ctx.Yield() // in and out of the preempted list until cancelled
				}
				stuck.Store(true)
				t.Errorf("%v task was never unwound", rec.kind)
			}
		case kindPanic:
			site := rec.n
			return func(ctx *Ctx) {
				enter(ctx, rec)
				switch site {
				case 0:
					panic("pre-checkpoint")
				case 1:
					for j := 0; j < 10; j++ {
						ctx.Checkpoint()
					}
					panic("mid-loop")
				default:
					defer func() { panic("in defer") }()
					ctx.Checkpoint()
				}
			}
		default: // the queued kinds never run
			return func(ctx *Ctx) { enter(ctx, rec) }
		}
	}

	var settled sync.WaitGroup
	submit := func(rec *reuseTask, opts SubmitOptions) {
		opts.Class = rec.class
		settled.Add(1)
		h, err := p.SubmitWithOptions(body(rec), opts, func(l time.Duration) {
			rec.lat = l
			settled.Done()
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		rec.h = h
	}
	for b := 0; b < batches; b++ {
		// Both workers are held at a gate while the batch is queued, so
		// "cancelled queued" and "expired queued" are certain.
		release := make(chan struct{})
		var atGate sync.WaitGroup
		for w := 0; w < workers; w++ {
			gate := &reuseTask{kind: kindComplete, class: ClassLC}
			all = append(all, gate)
			atGate.Add(1)
			enterGate := body(gate)
			settled.Add(1)
			h, err := p.SubmitWithOptions(func(ctx *Ctx) {
				enterGate(ctx)
				atGate.Done()
				<-release
			}, SubmitOptions{}, func(l time.Duration) { gate.lat = l; settled.Done() })
			if err != nil {
				t.Fatal(err)
			}
			gate.h = h
		}
		atGate.Wait()
		var waits []*reuseTask
		for i := 0; i < batchSize; i++ {
			rec := &reuseTask{kind: reuseKind(rng.Intn(int(numReuseKinds))), class: Class(rng.Intn(NumClasses))}
			all = append(all, rec)
			switch rec.kind {
			case kindComplete:
				rec.n = rng.Intn(20)
				submit(rec, SubmitOptions{})
			case kindYield:
				rec.n = 1 + rng.Intn(5)
				submit(rec, SubmitOptions{})
			case kindWait:
				rec.n = rng.Intn(3)
				waits = append(waits, rec) // synchronous: after the gate opens
			case kindCancelQueued:
				submit(rec, SubmitOptions{})
				if !rec.h.Cancel() {
					t.Fatal("Cancel of a queued task returned false")
				}
			case kindCancelRunning, kindCancelPreempted:
				rec.started = make(chan struct{})
				submit(rec, SubmitOptions{})
				go func() {
					<-rec.started
					rec.h.Cancel()
				}()
			case kindExpireQueued:
				submit(rec, SubmitOptions{Deadline: time.Now().Add(100 * time.Microsecond), Expire: true})
			case kindExpireRunning:
				submit(rec, SubmitOptions{Deadline: time.Now().Add(3 * time.Millisecond), Expire: true})
			case kindPanic:
				rec.n = rng.Intn(3)
				submit(rec, SubmitOptions{})
			}
		}
		time.Sleep(200 * time.Microsecond) // the expire-queued deadlines pass
		close(release)
		for _, rec := range waits {
			lat, state, err := p.SubmitWaitWithOptions(body(rec), SubmitOptions{Class: rec.class}, nil)
			if err != nil || lat < 0 || state != TaskCompleted {
				t.Fatalf("SubmitWaitWithOptions: lat=%v state=%v err=%v", lat, state, err)
			}
			rec.lat = lat
		}
		settled.Wait()
	}

	// Every submission settled as its own kind — a stale unwound,
	// expired, failure, cancel flag or deadline would settle one as
	// somebody else's.
	var want [NumClasses]ClassStats
	kept := 0
	for i, rec := range all {
		w := &want[rec.class]
		w.Submitted++
		var state TaskState
		var err error
		if rec.h != nil {
			state, err = rec.h.State(), rec.h.Err()
		} else {
			state = TaskCompleted
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("task %d (%v, %v): %s", i, rec.kind, rec.class, fmt.Sprintf(format, args...))
		}
		switch rec.kind {
		case kindComplete, kindYield, kindWait:
			w.Completed++
			if state != TaskCompleted || err != nil || rec.lat < 0 {
				fail("state=%v err=%v lat=%v, want completed", state, err, rec.lat)
			}
		case kindCancelQueued:
			w.CancelledQueued++
			if state != TaskCancelledQueued || !errors.Is(err, ErrCancelled) || rec.ran.Load() {
				fail("state=%v err=%v ran=%v, want cancelled-queued, never run", state, err, rec.ran.Load())
			}
		case kindCancelRunning, kindCancelPreempted:
			w.CancelledExecuting++
			if state != TaskCancelledExecuting || !errors.Is(err, ErrCancelled) || rec.lat != CancelledLatency {
				fail("state=%v err=%v lat=%v, want cancelled-executing", state, err, rec.lat)
			}
		case kindExpireQueued:
			w.ExpiredQueued++
			if state != TaskExpiredQueued || !errors.Is(err, ErrExpired) || rec.ran.Load() {
				fail("state=%v err=%v ran=%v, want expired-queued, never run", state, err, rec.ran.Load())
			}
		case kindExpireRunning:
			if state == TaskExpiredQueued && !rec.ran.Load() {
				w.ExpiredQueued++ // the batch ahead of it took longer than its deadline
			} else {
				w.ExpiredExecuting++
				if state != TaskExpiredExecuting || rec.lat != ExpiredLatency {
					fail("state=%v lat=%v, want expired", state, rec.lat)
				}
			}
		case kindPanic:
			w.Failed++
			var terr *TaskError
			if state != TaskFailed || !errors.As(err, &terr) || rec.lat != FailedLatency {
				fail("state=%v err=%v lat=%v, want failed", state, err, rec.lat)
			}
		}
		// The Fn behind the handle, long after its context moved on: it
		// answers with its own task's outcome and counters, not with
		// whatever the context has seen since.
		if rec.h == nil || !rec.ran.Load() || served[rec.ctx]-rec.useSeq <= 100 {
			continue
		}
		kept++
		fn := &rec.h.st.fn
		switch rec.kind {
		case kindComplete:
			if !fn.Completed() || fn.Cancelled() || fn.Failed() || fn.Preemptions != 0 ||
				fn.Ctx().Checkpoints() != uint64(rec.n) {
				fail("Fn after reuse: state=%v cancelled=%v preemptions=%d checkpoints=%d, want completed with %d checkpoints",
					fn.State(), fn.Cancelled(), fn.Preemptions, fn.Ctx().Checkpoints(), rec.n)
			}
		case kindYield:
			if !fn.Completed() || fn.Cancelled() || fn.Preemptions != rec.n {
				fail("Fn after reuse: state=%v cancelled=%v preemptions=%d, want completed after %d preemptions",
					fn.State(), fn.Cancelled(), fn.Preemptions, rec.n)
			}
		case kindCancelRunning, kindCancelPreempted:
			if !fn.Completed() || !fn.Cancelled() || fn.Expired() || !fn.Ctx().CancelUnwound() {
				fail("Fn after reuse: state=%v cancelled=%v expired=%v", fn.State(), fn.Cancelled(), fn.Expired())
			}
		case kindExpireRunning:
			if !fn.Cancelled() || !fn.Expired() || !fn.Ctx().DeadlineExpired() {
				fail("Fn after reuse: cancelled=%v expired=%v", fn.Cancelled(), fn.Expired())
			}
		case kindPanic:
			if !fn.Failed() || fn.Err() == nil || fn.Cancelled() {
				fail("Fn after reuse: state=%v err=%v", fn.State(), fn.Err())
			}
		}
	}
	if len(all) < 10000 {
		t.Fatalf("only %d tasks generated", len(all))
	}
	if kept < len(all)/3 {
		t.Fatalf("only %d of %d Fns were checked after ≥ 100 reuses of their context", kept, len(all))
	}
	// Contexts exist in the number of tasks live at once: the workers'
	// own plus one per task waiting in the preempted list (two kinds in
	// nine of a batch) — not one per task.
	if len(served) > batchSize/2 {
		t.Fatalf("%d contexts served %d tasks: the free list is not reusing them", len(served), len(all))
	}
	st := p.Stats()
	for c := range want {
		if st.PerClass[c] != want[c] {
			t.Fatalf("class %v counters\n got %+v\nwant %+v", Class(c), st.PerClass[c], want[c])
		}
		if st.PerClass[c].Settled() != st.PerClass[c].Submitted {
			t.Fatalf("class %v conservation broken: %+v", Class(c), st.PerClass[c])
		}
	}
}

// TestContextReuseCloseReleasesParked: contexts parked on the free list
// are goroutines, and Runtime.Close ends every one of them — after
// 1 000 launches, with up to 40 tasks live at once so that the list
// really fills.
func TestContextReuseCloseReleasesParked(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	launched := 0
	for launched < 1000 {
		var fns []*Fn
		for i := 0; i < 40; i++ {
			fn, err := rt.Launch(func(ctx *Ctx) { ctx.Yield() }, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			launched++
			fns = append(fns, fn)
		}
		if n := len(rt.free[ClassLC]); n != 0 {
			t.Fatalf("%d contexts parked with 40 tasks live, want every context in use", n)
		}
		for _, fn := range fns {
			fn.Resume(time.Second)
			if !fn.Completed() {
				t.Fatal("task did not complete on its second slice")
			}
		}
	}
	// Every context is idle again, and none was created beyond the 40
	// live at once (the list holds up to maxParked, so none was dropped).
	if n := len(rt.free[ClassLC]); n != 40 {
		t.Fatalf("%d contexts parked after %d launches with 40 live at once, want 40", n, launched)
	}
	rt.Close()
	if n := len(rt.free[ClassLC]); n != 0 {
		t.Fatalf("%d contexts still parked after Close", n)
	}
}

// TestContextReuseListIsBounded: a burst of more live tasks than the
// free list holds leaves at most maxParked contexts parked; the rest
// are discarded as their tasks end.
func TestContextReuseListIsBounded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newRT(t)
	var fns []*Fn
	for i := 0; i < maxParked+50; i++ {
		fn, err := rt.Launch(func(ctx *Ctx) { ctx.Yield() }, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	for _, fn := range fns {
		fn.Resume(time.Second)
	}
	// The 50 beyond the bound were discarded; a context neither parked
	// nor discarded would outlive Close and fail the leak check.
	if n := len(rt.free[ClassLC]); n != maxParked {
		t.Fatalf("%d parked after a burst of %d; want %d", n, len(fns), maxParked)
	}
}

func (k reuseKind) String() string {
	return [...]string{"complete", "yield", "cancel-queued", "cancel-running", "cancel-preempted",
		"expire-queued", "expire-running", "panic", "wait"}[k]
}
