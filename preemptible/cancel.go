package preemptible

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrCancelled is the outcome of a task killed by TaskHandle.Cancel:
// either evicted from the queue before execution or unwound at a
// safepoint mid-run. It is reported through TaskHandle.Err; the done
// callback observes CancelledLatency.
var ErrCancelled = errors.New("preemptible: task cancelled")

// ErrExpired is the outcome of a task dropped because its hard
// completion deadline (SubmitOptions.Expire) passed: shed at dequeue or
// unwound at a safepoint. Reported through TaskHandle.Err; the done
// callback observes ExpiredLatency.
var ErrExpired = errors.New("preemptible: task deadline expired")

// Latency sentinels passed to a submission's done callback when the
// task did not complete. Any negative latency means "not executed to
// completion"; the exact value says why.
const (
	// ShedLatency reports a task dropped without executing: its pickup
	// deadline (SubmitOptions.PickupTimeout) passed before a worker
	// reached it, or EvictClass evicted it.
	ShedLatency = -1 * time.Nanosecond
	// CancelledLatency reports a task killed by TaskHandle.Cancel:
	// evicted from the queue, or unwound at its next safepoint.
	CancelledLatency = -2 * time.Nanosecond
	// FailedLatency reports a task that panicked mid-execution; the
	// panic was contained by the runtime (TaskHandle.Err carries the
	// captured TaskError) and the worker that ran it is unharmed.
	FailedLatency = -4 * time.Nanosecond
	// ExpiredLatency reports a task dropped because its hard completion
	// deadline (SubmitOptions.Expire) passed: either shed at dequeue
	// before it ever ran (TaskExpiredQueued) or unwound at a safepoint
	// mid-run (TaskExpiredExecuting). The work was doomed — its caller
	// had already given up — so finishing it would burn worker time for
	// a result nobody reads.
	ExpiredLatency = -5 * time.Nanosecond
)

// TaskState is a submitted task's lifecycle state, observable through
// TaskHandle.State.
type TaskState int32

const (
	// TaskQueued: waiting in the pool's dispatch order, never run.
	TaskQueued TaskState = iota
	// TaskRunning: a worker is executing the task right now.
	TaskRunning
	// TaskPreempted: the task ran, was preempted at a safepoint, and
	// waits in the pool's dispatch order for a worker.
	TaskPreempted
	// TaskCompleted: the task finished normally.
	TaskCompleted
	// TaskShed: the pickup deadline passed or EvictClass evicted the
	// task; it never executed.
	TaskShed
	// TaskCancelledQueued: Cancel evicted the task before it ever ran.
	TaskCancelledQueued
	// TaskCancelledExecuting: Cancel unwound the task at a safepoint
	// after it had started executing.
	TaskCancelledExecuting
	// TaskFailed: the task panicked while executing; the runtime
	// contained the fault and recorded it (TaskHandle.Err).
	TaskFailed
	// TaskExpiredQueued: the hard completion deadline passed while the
	// task was still queued; it was dropped at dequeue, never executed.
	TaskExpiredQueued
	// TaskExpiredExecuting: the hard completion deadline passed after
	// the task started; it unwound at its next safepoint.
	TaskExpiredExecuting
)

func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskRunning:
		return "running"
	case TaskPreempted:
		return "preempted"
	case TaskCompleted:
		return "completed"
	case TaskShed:
		return "shed"
	case TaskCancelledQueued:
		return "cancelled-queued"
	case TaskCancelledExecuting:
		return "cancelled-executing"
	case TaskFailed:
		return "failed"
	case TaskExpiredQueued:
		return "expired-queued"
	case TaskExpiredExecuting:
		return "expired-executing"
	default:
		return "invalid"
	}
}

// Cancelled reports whether the state is one of the two cancelled
// outcomes.
func (s TaskState) Cancelled() bool {
	return s == TaskCancelledQueued || s == TaskCancelledExecuting
}

// Expired reports whether the state is one of the two
// deadline-expired outcomes.
func (s TaskState) Expired() bool {
	return s == TaskExpiredQueued || s == TaskExpiredExecuting
}

// taskState is the one record of a submission, shared by its queue
// entry, the executing Ctx, and the TaskHandle. status transitions are
// serialized by the pool's mutex; cancelReq is the lock-free flag the
// task's safepoints poll (the cancellation analog of the preemption
// flag). Everything else is set at submit and read-only afterwards,
// except fn, which belongs to whichever worker popped the task.
type taskState struct {
	status    TaskState // guarded by Pool.mu
	class     Class
	cancelReq atomic.Uint32
	// expires is the hard completion deadline in unixnanos (0 = none).
	// Workers consult it at dequeue; the task's Ctx consults it at
	// safepoints.
	expires int64
	// done, when non-nil, is called with the task's latency (or a
	// negative sentinel) exactly once, when the task settles.
	done func(time.Duration)
	// failure is the captured panic of a TaskFailed task (guarded by
	// Pool.mu, set exactly once when the status becomes TaskFailed).
	failure *TaskError

	task    Task
	arrival time.Time
	// pickup, when non-zero, is the pickup deadline: a worker reaching
	// the task after it sheds instead of running it.
	pickup time.Time
	// deadline, when non-zero, is the SLO deadline that orders the task
	// under EDF; with expires set it is the same instant.
	deadline time.Time
	// fn is the task's preemptible function from its first launch on.
	fn Fn
	// wake, on a SubmitWaitWithOptions record, receives what done would
	// have been called with. It has room for the one value a submission
	// ever settles with, so settling never blocks a worker.
	wake chan time.Duration
}

// settle reports the task's outcome to whoever submitted it. The send
// is the pool's last touch of a SubmitWaitWithOptions record: its waiter
// may recycle it as soon as the value arrives.
func (st *taskState) settle(lat time.Duration) {
	if st.wake != nil {
		st.wake <- lat
	} else if st.done != nil {
		st.done(lat)
	}
}

// TaskHandle identifies one submission for cancellation and outcome
// inspection. The zero value is invalid; handles come from
// SubmitWithOptions.
type TaskHandle struct {
	p  *Pool
	st *taskState
}

// submission is a handle and its record in one allocation.
type submission struct {
	h  TaskHandle
	st taskState
}

// State snapshots the task's lifecycle state.
func (h *TaskHandle) State() TaskState {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return h.st.status
}

// Err reports the task's terminal outcome: ErrCancelled after a cancel
// took effect, ErrExpired after the hard completion deadline dropped
// the task, the captured *TaskError after the task panicked, nil
// otherwise (including while still pending — pair with State for
// liveness).
func (h *TaskHandle) Err() error {
	h.p.mu.Lock()
	st, failure := h.st.status, h.st.failure
	h.p.mu.Unlock()
	switch {
	case st.Cancelled():
		return ErrCancelled
	case st.Expired():
		return ErrExpired
	case st == TaskFailed:
		return failure
	}
	return nil
}

// Cancel stops the task wherever it is in its lifecycle:
//
//   - Queued (never run): the task is evicted — it will never occupy a
//     worker. The queue entry is lazily deleted (a tombstone the next
//     pop skips, so EDF heap invariants hold) and done is invoked
//     immediately with CancelledLatency.
//   - Preempted (in queue mid-run): the cancel flag is raised; the next
//     worker to pick the task resumes it just far enough to unwind at
//     its safepoint, then reports done(CancelledLatency).
//   - Running: the cancel flag is raised; the task unwinds at its next
//     Checkpoint or Yield through the normal save/return path and
//     reports done(CancelledLatency). A task that reaches no further
//     safepoint completes normally — cancellation of executing work is
//     cooperative, exactly like preemption.
//
// Cancel returns true if the request was accepted (the task was still
// queued, preempted, or running), false if the task had already
// finished, been shed, or been cancelled. Cancel never blocks on task
// execution and is safe to call from any goroutine, once or many times.
func (h *TaskHandle) Cancel() bool { return h.p.cancel(h.st) }

func (p *Pool) cancel(st *taskState) bool {
	p.mu.Lock()
	switch st.status {
	case TaskQueued:
		p.evictQueuedLocked(st)
		p.mu.Unlock()
		st.settle(CancelledLatency)
		return true
	case TaskRunning, TaskPreempted:
		// false: already requested by an earlier Cancel.
		accepted := st.cancelReq.Swap(1) == 0
		p.mu.Unlock()
		return accepted
	default:
		p.mu.Unlock()
		return false
	}
}

// evictQueuedLocked turns a queued, never-run task into a tombstone the
// next pop skips (caller holds mu and settles the task with
// CancelledLatency after unlocking).
func (p *Pool) evictQueuedLocked(st *taskState) {
	st.status = TaskCancelledQueued
	st.cancelReq.Store(1)
	p.perClass[st.class].CancelledQueued++
}
