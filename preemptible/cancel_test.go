package preemptible

import (
	"testing"
	"time"
)

func TestCancelQueuedEvicts(t *testing.T) {
	// A queued task cancelled before any worker reaches it must never
	// execute: done fires immediately with CancelledLatency and the
	// worker only ever runs the wedge task.
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		<-release
	}, SubmitOptions{}, nil)
	<-started // the single worker is now occupied

	executed := false
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) { executed = true }, SubmitOptions{}, func(l time.Duration) { ch <- l })
	if got := h.State(); got != TaskQueued {
		t.Fatalf("state before cancel: %v", got)
	}
	if !h.Cancel() {
		t.Fatal("Cancel of a queued task returned false")
	}
	select {
	case lat := <-ch:
		if lat != CancelledLatency {
			t.Fatalf("done latency %v, want CancelledLatency", lat)
		}
	default:
		t.Fatal("queued eviction did not fire done synchronously")
	}
	if h.Cancel() {
		t.Fatal("double Cancel returned true")
	}
	if got := h.State(); got != TaskCancelledQueued {
		t.Fatalf("state after cancel: %v", got)
	}
	if h.Err() != ErrCancelled {
		t.Fatalf("Err() = %v, want ErrCancelled", h.Err())
	}
	if n := p.QueueLen(); n != 0 {
		t.Fatalf("QueueLen %d after eviction, want 0 (tombstone accounted)", n)
	}

	close(release)
	p.Close()
	if executed {
		t.Fatal("evicted task executed")
	}
	st := p.Stats()
	if st.CancelledQueued != 1 || st.CancelledExecuting != 0 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelExecutingUnwindsAtSafepoint(t *testing.T) {
	// Cancelling a running task raises the flag; the task unwinds at
	// its next Checkpoint, its defers run, and done reports
	// CancelledLatency through the normal completion path.
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Millisecond})

	started := make(chan struct{})
	var deferRan bool
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) {
		defer func() { deferRan = true }()
		close(started)
		for {
			ctx.Checkpoint()
			time.Sleep(50 * time.Microsecond)
		}
	}, SubmitOptions{}, func(l time.Duration) { ch <- l })
	<-started

	if !h.Cancel() {
		t.Fatal("Cancel of a running task returned false")
	}
	lat := <-ch
	if lat != CancelledLatency {
		t.Fatalf("done latency %v, want CancelledLatency", lat)
	}
	if got := h.State(); got != TaskCancelledExecuting {
		t.Fatalf("state: %v", got)
	}
	if !deferRan {
		t.Fatal("task defers did not run during cancel-unwind")
	}
	p.Close()
	st := p.Stats()
	if st.CancelledExecuting != 1 || st.Completed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelPreemptedInQueue(t *testing.T) {
	// Cancel while the task sits preempted in the queue: the flag is
	// raised, and the resume unwinds immediately — no further user code
	// segment runs (yieldNow re-checks on wake).
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 100 * time.Microsecond})

	started := make(chan struct{})
	segments := 0
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		for {
			segments++
			busy := time.Now().Add(200 * time.Microsecond)
			for time.Now().Before(busy) {
			}
			ctx.Checkpoint() // quantum (100µs) already expired: preempts here
		}
	}, SubmitOptions{}, func(l time.Duration) { ch <- l })
	<-started

	// Queue a wedge arrival while the spinner runs: arrivals-first FIFO
	// means the worker picks it right after the spinner's first
	// preemption, parking the spinner stably in the preempted list.
	release := make(chan struct{})
	wstart := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) { close(wstart); <-release }, SubmitOptions{}, nil)
	<-wstart
	waitUntil(t, 2*time.Second, func() bool { return h.State() == TaskPreempted },
		"task to be preempted into the queue")

	segsAtCancel := segments
	if !h.Cancel() {
		t.Fatal("Cancel of a preempted task returned false")
	}
	close(release)
	if lat := <-ch; lat != CancelledLatency {
		t.Fatalf("done latency %v, want CancelledLatency", lat)
	}
	if got := h.State(); got != TaskCancelledExecuting {
		t.Fatalf("state: %v", got)
	}
	if segments != segsAtCancel {
		t.Fatalf("task ran %d more segments after a preempted-state cancel",
			segments-segsAtCancel)
	}
	p.Close()
}

func TestCancelRunningWithoutSafepointsCompletes(t *testing.T) {
	// Cancellation is cooperative: a running task that reaches no
	// further safepoint completes normally and done sees the real
	// latency.
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})

	started := make(chan struct{})
	release := make(chan struct{})
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		<-release
		// no Checkpoint between here and return
	}, SubmitOptions{}, func(l time.Duration) { ch <- l })
	<-started

	if !h.Cancel() {
		t.Fatal("Cancel of a running task returned false")
	}
	close(release)
	if lat := <-ch; lat < 0 {
		t.Fatalf("task without safepoints reported %v, want real latency", lat)
	}
	if got := h.State(); got != TaskCompleted {
		t.Fatalf("state: %v", got)
	}
	p.Close()
	st := p.Stats()
	if st.Completed != 1 || st.Cancelled() != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCancelCompletedReturnsFalse(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, func(l time.Duration) { ch <- l })
	<-ch
	waitUntil(t, 2*time.Second, func() bool { return h.State() == TaskCompleted },
		"task to settle")
	if h.Cancel() {
		t.Fatal("Cancel of a completed task returned true")
	}
	if h.Err() != nil {
		t.Fatalf("Err() = %v for a completed task", h.Err())
	}
	p.Close()
}

func TestCancelObservableViaCtxPolling(t *testing.T) {
	// Ctx.Cancelled lets a task poll without unwinding; a voluntary
	// normal return after a cancel request still counts as completion.
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	started := make(chan struct{})
	sawCancel := make(chan bool, 1)
	ch := make(chan time.Duration, 1)
	h, _ := p.SubmitWithOptions(func(ctx *Ctx) {
		close(started)
		for !ctx.Cancelled() {
			time.Sleep(50 * time.Microsecond)
		}
		sawCancel <- true
	}, SubmitOptions{}, func(l time.Duration) { ch <- l })
	<-started
	h.Cancel()
	if !<-sawCancel {
		t.Fatal("task never observed the cancel flag")
	}
	if lat := <-ch; lat < 0 {
		t.Fatalf("voluntary return reported %v, want real latency", lat)
	}
	if got := h.State(); got != TaskCompleted {
		t.Fatalf("state: %v", got)
	}
	p.Close()
}
