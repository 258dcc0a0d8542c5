package preemptible

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Task is the body of a preemptible function. It must call
// ctx.Checkpoint() inside long-running loops; checkpoints are the
// safepoints at which preemption is observed (the substitution for
// asynchronous UINTR delivery — see the package comment).
type Task func(ctx *Ctx)

// Ctx is the execution context handed to a Task: a goroutine parked on
// parkCh, the channel pair that hands control between it and its
// scheduler, and the deadline word its safepoints read (the paper's
// 64-byte-aligned deadline address). Contexts are the paper's free
// list: the runtime creates one — goroutine and channels — only when
// no idle one exists, parks it when its task ends and hands it to a
// later Launch (see Runtime.acquire), so a Ctx outlives the task it is
// passed to. A Task must not keep its *Ctx past its own return.
//
// Contexts come in two kinds, one per Class, and a context only ever
// serves tasks of its own kind. A BE context's goroutine is locked to
// its OS thread for life and lowers that thread's scheduling priority
// once (nice 19 on Linux), so CPU-bound best-effort work yields the
// processor to any latency-critical thread the kernel wakes beside it;
// since the goroutine never unlocks, the thread ends with it and never
// runs LC code.
type Ctx struct {
	rt *Runtime
	// class is the context's kind, fixed at creation.
	class Class
	// deadline is the word Checkpoint compares against the clock: 0 =
	// disarmed, otherwise the unixnano at which the current time slice
	// ends. run arms it; yieldNow and loop disarm it.
	deadline atomic.Int64

	// The fields from here to checkpoints describe one task and are
	// reset by Runtime.start before the context serves the next one.

	// task is the body the context goroutine runs next; nil while
	// parked, so a wake-up that finds none means exit (Runtime.discard).
	// Written by the launcher before the parkCh send, read by the
	// goroutine after the receive.
	task Task
	// cancelReq, when non-nil, points at the submission's shared cancel
	// flag (raised by TaskHandle.Cancel). Checkpoint and Yield observe
	// it and unwind the task; the Pool binds it at launch, before any
	// user code runs.
	cancelReq *atomic.Uint32
	// expiresAt, when non-zero, is the submission's hard completion
	// deadline in unixnanos (SubmitOptions.Expire): Checkpoint and
	// Yield compare it against the clock and unwind the task once it
	// passes — doomed work stops at the next safepoint instead of
	// finishing for a caller that already gave up. Bound like
	// cancelReq, read-only while the task runs.
	expiresAt int64
	// unwound records that the task exited via cancel-unwind rather
	// than a normal return (fn_completed(cancelled)).
	unwound atomic.Bool
	// expired records that the unwind was triggered by the hard
	// completion deadline rather than a cancel request.
	expired atomic.Bool
	// failure records a panic runTaskBody captured: the task died but
	// the Fn completes through the ordinary yield path in StateFailed.
	// Written by the task goroutine before its final yieldCh send, read
	// by the scheduler after the matching receive — the channel handoff
	// orders the accesses.
	failure     *TaskError
	checkpoints atomic.Uint64

	// coop marks a degraded-mode context: the task runs inline with no
	// scheduler to yield to, so Yield and Checkpoint-triggered yields
	// are no-ops (see Pool's graceful degradation). Never set on a
	// context with a goroutine: the cooperative runner builds its own.
	coop bool

	// parkCh wakes the idle goroutine for its next task (or to exit);
	// runCh starts each time slice and yieldCh ends it.
	parkCh  chan struct{}
	runCh   chan struct{}
	yieldCh chan bool // true = task finished
}

// cancelPanic is the sentinel thrown by a safepoint to unwind a
// cancelled task; the launch wrapper recovers it and completes the Fn
// through the normal yield path.
type cancelPanic struct{}

// TaskError is the captured panic of a failed task: the recovered
// value plus the stack at the panic site. The runtime contains the
// fault — the worker and the queues stay healthy — and the Fn
// completes in StateFailed carrying this record, so the scheduler can
// attribute the crash without the process dying with it.
type TaskError struct {
	// Value is the value the task panicked with.
	Value any
	// Stack is the goroutine stack captured at recovery, panic site
	// included.
	Stack []byte
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("preemptible: task panicked: %v", e.Value)
}

// Checkpoint is the safepoint: once the armed deadline word is behind
// the clock (one vDSO clock read) it returns control to the scheduler
// that called Launch/Resume and blocks until resumed. This clock read
// is the only way a quantum expires — the stand-in for LibUtimer's
// user interrupt, which Go cannot deliver to a goroutine (see the
// package comment).
func (c *Ctx) Checkpoint() {
	c.checkpoints.Add(1)
	if c.Cancelled() {
		c.unwind()
	}
	c.checkExpiry()
	d := c.deadline.Load()
	if d == 0 || time.Now().UnixNano() < d {
		return
	}
	c.rt.preemptions.Add(1)
	c.yieldNow()
}

// Yield voluntarily returns control to the scheduler regardless of the
// deadline (cooperative yield). Like Checkpoint, it is a safepoint: a
// pending cancel unwinds the task here.
func (c *Ctx) Yield() {
	if c.Cancelled() {
		c.unwind()
	}
	c.checkExpiry()
	c.yieldNow()
}

// Cancelled reports whether a cancel is pending (without unwinding).
// Tasks with expensive sections between safepoints can poll it and
// return early voluntarily; a normal return after a cancel request
// still counts as completion.
func (c *Ctx) Cancelled() bool {
	return c.cancelReq != nil && c.cancelReq.Load() == 1
}

// unwind aborts the task at the current safepoint: it marks the context
// cancel-unwound and panics with the sentinel the launch wrapper (or
// the degraded-mode runner) recovers, so the task's own defers run and
// control returns to the scheduler exactly as on completion. The
// unwinding panic passes through user frames; a task body that recovers
// all panics indiscriminately defeats cancellation and must rethrow
// values it does not own.
func (c *Ctx) unwind() {
	c.unwound.Store(true)
	c.deadline.Store(0)
	panic(cancelPanic{})
}

// checkExpiry unwinds the task if its hard completion deadline has
// passed — the expiry analog of the pending-cancel check, sharing the
// same sentinel-panic unwind path but recording the cause so the pool
// settles the task as expired rather than cancelled.
func (c *Ctx) checkExpiry() {
	if c.expiresAt != 0 && time.Now().UnixNano() >= c.expiresAt {
		c.expired.Store(true)
		c.unwind()
	}
}

// CancelUnwound reports whether the task exited via cancel-unwind
// (fn_completed(cancelled)) rather than a normal return.
func (c *Ctx) CancelUnwound() bool { return c.unwound.Load() }

// DeadlineExpired reports whether the task's unwind was triggered by
// its hard completion deadline (SubmitOptions.Expire) rather than a
// cancel request.
func (c *Ctx) DeadlineExpired() bool { return c.expired.Load() }

// Deadline reports the armed preemption deadline (zero Time if none).
func (c *Ctx) Deadline() time.Time {
	d := c.deadline.Load()
	if d == 0 {
		return time.Time{}
	}
	return time.Unix(0, d)
}

// Checkpoints reports how many safepoints the task has passed.
func (c *Ctx) Checkpoints() uint64 { return c.checkpoints.Load() }

func (c *Ctx) yieldNow() {
	c.deadline.Store(0)
	if c.coop {
		// Degraded mode: no scheduler is blocked on yieldCh; keep
		// running cooperatively.
		return
	}
	c.yieldCh <- false
	<-c.runCh
	// Re-check on wake: a task cancelled (or whose hard deadline
	// passed) while preempted-in-queue must unwind on its resume
	// without running another inter-safepoint segment of user code.
	if c.Cancelled() {
		c.unwind()
	}
	c.checkExpiry()
}

// FnState is a Fn's lifecycle state.
type FnState int32

const (
	// StatePreempted: the Fn is stopped at a safepoint, resumable.
	StatePreempted FnState = iota
	// StateRunning: the Fn is executing (its scheduler is blocked in
	// Launch/Resume).
	StateRunning
	// StateCompleted: the task returned; Resume is an error.
	StateCompleted
	// StateFailed: the task panicked; the Fn is terminal and Err
	// carries the captured panic. Resume is an error.
	StateFailed
)

func (s FnState) String() string {
	switch s {
	case StatePreempted:
		return "preempted"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateFailed:
		return "failed"
	default:
		return "invalid"
	}
}

// Fn is a preemptible function: a Task bound to a context and a
// deadline (the paper's Fn = {Context, Deadline}). The binding lasts
// while the task is live; when it ends the Fn copies the outcome out of
// the context — which goes back to the runtime's free list and will
// serve other tasks — so State, Err, Cancelled, Expired, Preemptions
// and Ctx keep describing this Fn's own task afterwards.
type Fn struct {
	ctx   *Ctx
	state atomic.Int32

	// Preemptions counts times this Fn was preempted.
	Preemptions int

	// The task's outcome, written by run before the terminal state is
	// stored (which is what publishes it to other goroutines).
	failure          *TaskError
	unwound, expired bool
	checkpoints      uint64
}

// Launch creates a preemptible function and runs it immediately
// (fn_launch): control returns to the caller when the task completes or
// its time slice (quantum; DefaultQuantum if 0) expires at a
// checkpoint. The returned Fn is resumable if not completed. In steady
// state the Fn is the only allocation: the context comes off the free
// list.
func (r *Runtime) Launch(task Task, quantum time.Duration) (*Fn, error) {
	if task == nil {
		panic("preemptible: nil task")
	}
	c, err := r.acquire(ClassLC, nil)
	if err != nil {
		return nil, err
	}
	fn := &Fn{}
	if freed := r.start(fn, c, task, nil, 0, quantum); freed != nil {
		r.release(freed)
	}
	return fn, nil
}

// start binds task to context c as fn and runs its first time slice.
// cancelReq and expiresAt are the Pool's per-submission cancel flag and
// hard deadline (nil and 0 for a bare Launch). c served another task
// before: every per-task field is reset here, one by one, before any
// user code can read it. The deadline word needs no reset — the context
// goroutine disarms it before its final yield, and run arms it next.
// Like run, start returns the context once the task has ended.
//
// The hand-off is two steps — wake the parked goroutine on parkCh, then
// rendezvous with it on runCh in run — and not one send to a goroutine
// already waiting on runCh, because of who is runnable while the task
// runs. With the rendezvous the scheduler blocks in its send and it is
// the context goroutine's receive that readies it again, so for the
// length of the slice the scheduler's goroutine sits runnable on its P,
// as it did when every Launch started a new goroutine. That stealable
// goroutine keeps a second processor's thread spinning instead of
// asleep in a futex, and on a host where waking it is slow (the 2-vCPU
// benchmark VM) work that needs the second processor at once pays for
// every sleep: over ten pairs against the goroutine-per-Launch parent,
// mget_fanout lost 10 % of ops_s and lc_tail_ratio went 2.23 → 2.93
// with the one-step hand-off, and gained 2 % at 2.28 → 2.07 with this
// one; kv_read gains ≈ 10 % either way. The price is one more switch
// per task, for the context goroutine to get back to parkCh (DESIGN.md,
// "Context free list").
func (r *Runtime) start(fn *Fn, c *Ctx, task Task, cancelReq *atomic.Uint32, expiresAt int64, quantum time.Duration) (freed *Ctx) {
	c.task = task
	c.cancelReq = cancelReq
	c.expiresAt = expiresAt
	c.unwound.Store(false)
	c.expired.Store(false)
	c.failure = nil
	c.checkpoints.Store(0)
	fn.ctx = c
	c.parkCh <- struct{}{}
	return fn.run(quantum)
}

// loop is the context goroutine: run the task handed over with each
// wake-up, report its end, park again. A wake-up with no task is
// Runtime.discard telling the goroutine to exit.
//
// A BE context first takes its thread for good. It never unlocks: the
// thread's priority cannot be raised back without CAP_SYS_NICE, so the
// niced thread must not return to Go's pool, and a goroutine that exits
// locked takes its thread with it.
func (c *Ctx) loop() {
	if c.class == ClassBE {
		runtime.LockOSThread()
		lowerThreadPriority()
	}
	for {
		<-c.parkCh
		task := c.task
		if task == nil {
			return
		}
		c.task = nil // a parked context keeps no task's closure alive
		<-c.runCh
		runTaskBody(task, c)
		c.deadline.Store(0)
		c.yieldCh <- true
	}
}

// runTaskBody executes the task, containing every panic. The
// cancel-unwind sentinel is absorbed silently: a cancelled task's stack
// unwinds (its defers run) and the Fn completes through the ordinary
// yield path, state Completed with ctx.CancelUnwound() set. Any other
// panic is a task fault, not a runtime fault: the value and stack are
// captured into a TaskError and the Fn completes in StateFailed through
// the same path, so one poisoned task can never take down the worker
// or the queues around it.
func runTaskBody(task Task, ctx *Ctx) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(cancelPanic); ok {
				return
			}
			ctx.failure = &TaskError{Value: r, Stack: debug.Stack()}
		}
	}()
	task(ctx)
}

// Resume continues a preempted function (fn_resume) until the next
// quantum expiry or completion. Resuming a completed, failed, or
// running Fn panics: all three indicate a scheduler bug — a failed Fn
// in particular is terminal, its context serves other tasks by now, and
// there is nothing left to continue.
func (fn *Fn) Resume(quantum time.Duration) {
	switch FnState(fn.state.Load()) {
	case StateCompleted:
		panic("preemptible: Resume of completed Fn")
	case StateFailed:
		panic("preemptible: Resume of failed Fn")
	case StateRunning:
		panic("preemptible: concurrent Resume")
	}
	if freed := fn.run(quantum); freed != nil {
		freed.rt.release(freed)
	}
}

// run gives the task one time slice. When the task ends in it, run
// copies the outcome into fn and returns the context, which is idle
// from then on: the caller keeps it for its next launch (a Pool worker)
// or releases it to the free list.
func (fn *Fn) run(quantum time.Duration) (freed *Ctx) {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	c := fn.ctx
	fn.state.Store(int32(StateRunning))
	// Arm the deadline word (utimer_arm_deadline: one memory write).
	c.deadline.Store(time.Now().Add(quantum).UnixNano())
	c.runCh <- struct{}{}
	if done := <-c.yieldCh; !done {
		fn.Preemptions++
		fn.state.Store(int32(StatePreempted))
		return nil
	}
	fn.failure = c.failure
	fn.unwound = c.unwound.Load()
	fn.expired = c.expired.Load()
	fn.checkpoints = c.checkpoints.Load()
	if fn.failure != nil {
		fn.state.Store(int32(StateFailed))
	} else {
		fn.state.Store(int32(StateCompleted))
	}
	return c
}

// Completed reports whether the task finished (fn_completed), so that
// no reschedule is necessary.
func (fn *Fn) Completed() bool {
	return FnState(fn.state.Load()) == StateCompleted
}

// Failed reports whether the task panicked; the captured panic is in
// Err. A failed Fn is terminal: like Completed, no reschedule is
// necessary (or possible).
func (fn *Fn) Failed() bool {
	return FnState(fn.state.Load()) == StateFailed
}

// ended reports whether the Fn is terminal, i.e. its outcome fields are
// published and its context is no longer its own.
func (fn *Fn) ended() bool {
	s := FnState(fn.state.Load())
	return s == StateCompleted || s == StateFailed
}

// Err reports a failed Fn's captured panic (nil unless Failed).
func (fn *Fn) Err() *TaskError {
	if fn.Failed() {
		return fn.failure
	}
	return nil
}

// Cancelled reports fn_completed(cancelled): the task completed by
// unwinding at a safepoint after a cancel rather than returning
// normally. False until Completed is true.
func (fn *Fn) Cancelled() bool { return fn.ended() && fn.unwound }

// Expired reports that the unwind was triggered by the task's hard
// completion deadline rather than a cancel request. Only meaningful
// once Cancelled is true.
func (fn *Fn) Expired() bool { return fn.ended() && fn.expired }

// State reports the Fn's lifecycle state.
func (fn *Fn) State() FnState { return FnState(fn.state.Load()) }

// Ctx exposes the Fn's context (for inspection in tests/policies).
// While the task is live this is the context it runs on; once it has
// ended, that context belongs to the free list, so Ctx returns a
// detached record of this task's outcome and counters instead (inert:
// its safepoints are no-ops).
func (fn *Fn) Ctx() *Ctx {
	if !fn.ended() {
		return fn.ctx
	}
	c := &Ctx{coop: true, failure: fn.failure}
	c.unwound.Store(fn.unwound)
	c.expired.Store(fn.expired)
	c.checkpoints.Store(fn.checkpoints)
	return c
}
