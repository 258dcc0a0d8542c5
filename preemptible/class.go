package preemptible

import (
	"fmt"
	"time"
)

// Class labels a submission's service class, mirroring the paper's
// colocation contract (§VI): latency-critical (LC) work is protected,
// best-effort (BE) work soaks spare cycles and is the first to be
// rejected or evicted under pressure. Class-unaware submissions
// (Submit, SubmitTimeout, SubmitDeadline) default to ClassLC, which
// preserves their historical behavior exactly.
type Class int

const (
	// ClassLC is latency-critical work (e.g. KV operations).
	ClassLC Class = iota
	// ClassBE is best-effort work (e.g. compression blocks).
	ClassBE

	// NumClasses is the number of service classes (for per-class
	// counter arrays).
	NumClasses = 2
)

func (c Class) String() string {
	switch c {
	case ClassLC:
		return "lc"
	case ClassBE:
		return "be"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

func (c Class) valid() bool { return c >= 0 && c < NumClasses }

// ClassStats is one class's slice of the pool counters. Work is
// conserved per class: once the pool is idle,
//
//	Submitted = Completed + Rejected + Shed + Failed + Cancelled() + Expired()
//
// holds exactly — every submission lands in one terminal bucket.
type ClassStats struct {
	// Submitted counts SubmitClass calls for the class (including ones
	// the admission gate refused).
	Submitted uint64
	// Completed counts tasks that ran to completion.
	Completed uint64
	// Rejected counts submissions refused at SubmitClass because the
	// class's admission gate was closed (SetClassAdmission); the done
	// callback observes RejectedLatency and the task never queues.
	Rejected uint64
	// Shed counts tasks dropped without executing: pickup-deadline
	// sheds (SubmitTimeout) and queued-work evictions (EvictClass).
	Shed uint64
	// CancelledQueued/CancelledExecuting mirror the pool-wide buckets.
	CancelledQueued, CancelledExecuting uint64
	// ExpiredQueued/ExpiredExecuting mirror the pool-wide deadline-expiry
	// buckets (SubmitOptions.Expire): dropped at dequeue without ever
	// running, and unwound at a safepoint mid-run, respectively.
	ExpiredQueued, ExpiredExecuting uint64
	// Failed counts tasks of the class that panicked mid-execution; the
	// runtime contained each fault and the done callback observed
	// FailedLatency.
	Failed uint64
}

// Cancelled is the total of both cancellation buckets.
func (s ClassStats) Cancelled() uint64 { return s.CancelledQueued + s.CancelledExecuting }

// Expired is the total of both deadline-expiry buckets.
func (s ClassStats) Expired() uint64 { return s.ExpiredQueued + s.ExpiredExecuting }

// Settled is the total of every terminal bucket; Submitted − Settled
// is the work still in flight.
func (s ClassStats) Settled() uint64 {
	return s.Completed + s.Rejected + s.Shed + s.Failed + s.Cancelled() + s.Expired()
}

// SubmitClass is Submit with an explicit service class. If the class's
// admission gate is closed (SetClassAdmission) the task is refused
// without queuing: done observes RejectedLatency and the handle
// reports TaskRejected. Returns ErrClosed after Close/Drain.
func (p *Pool) SubmitClass(class Class, task Task, done func(latency time.Duration)) (*TaskHandle, error) {
	return p.SubmitWithOptions(task, SubmitOptions{Class: class}, done)
}

// SetClassAdmission opens or closes a class's admission gate. While
// closed, SubmitClass refuses the class's tasks at the door (counted
// in ClassStats.Rejected) — the pool-level half of a brownout: callers
// that cannot classify at a higher layer still get BE-first rejection.
// Gates start open; closing a gate never touches already-queued work
// (use EvictClass for that).
func (p *Pool) SetClassAdmission(class Class, admit bool) {
	if !class.valid() {
		panic(fmt.Sprintf("preemptible: invalid class %d", class))
	}
	p.mu.Lock()
	p.gateClosed[class] = !admit
	p.mu.Unlock()
}

// EvictClass sheds every queued, never-run task of the class: FIFO
// arrivals and EDF-queued fresh tasks are tombstoned in place (lazy
// delete, heap invariants untouched) and their done callbacks observe
// ShedLatency. Preempted mid-run tasks are not touched — eviction is
// for work that has consumed nothing yet; killing started BE work is a
// policy the caller can express with TaskHandle.Cancel. Returns how
// many tasks were evicted.
func (p *Pool) EvictClass(class Class) int {
	if !class.valid() {
		panic(fmt.Sprintf("preemptible: invalid class %d", class))
	}
	var evicted []*taskState
	p.mu.Lock()
	evict := func(st *taskState) {
		if st.status != TaskQueued || st.class != class {
			return
		}
		st.status = TaskShed
		p.shed++
		p.perClass[class].Shed++
		p.tombstones++
		evicted = append(evicted, st)
	}
	for _, st := range p.arrivals[p.arrHead:] {
		evict(st)
	}
	for _, it := range p.edf {
		evict(it.st)
	}
	p.mu.Unlock()
	for _, st := range evicted {
		st.settle(ShedLatency)
	}
	return len(evicted)
}

// OldestWait reports how long the oldest queued, never-run task has
// been waiting at time now (0 when nothing is queued) — the queue-delay
// signal for admission and brownout controllers.
func (p *Pool) OldestWait(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var oldest time.Time
	for _, st := range p.arrivals[p.arrHead:] {
		if st.status == TaskQueued {
			oldest = st.arrival
			break // FIFO arrivals are in arrival order
		}
	}
	for _, it := range p.edf {
		if st := it.st; st.status == TaskQueued && (oldest.IsZero() || st.arrival.Before(oldest)) {
			oldest = st.arrival
		}
	}
	if oldest.IsZero() {
		return 0
	}
	d := now.Sub(oldest)
	if d < 0 {
		return 0
	}
	return d
}
