package preemptible

import (
	"fmt"
	"time"
)

// Class labels a submission's service class, mirroring the paper's
// colocation contract (§VI): latency-critical (LC) work is protected,
// best-effort (BE) work soaks spare cycles and is the first to be
// evicted under pressure (EvictClass). The zero SubmitOptions submits
// ClassLC.
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
//	Submitted = Completed + Shed + Failed + Cancelled() + Expired()
//
// holds exactly — every submission lands in one terminal bucket.
type ClassStats struct {
	// Submitted counts the class's accepted submissions.
	Submitted uint64
	// Completed counts tasks that ran to completion.
	Completed uint64
	// Shed counts tasks dropped without executing: pickup-deadline
	// sheds (SubmitOptions.PickupTimeout) and queued-work evictions
	// (EvictClass).
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
	return s.Completed + s.Shed + s.Failed + s.Cancelled() + s.Expired()
}

// EvictClass sheds every queued, never-run task of the class: each is
// tombstoned in place (lazy delete, the order's invariants untouched)
// and its done callback observes ShedLatency. Preempted mid-run tasks
// are not touched — eviction is for work that has consumed nothing yet;
// killing started BE work is a policy the caller can express with
// TaskHandle.Cancel. Returns how many tasks were evicted.
func (p *Pool) EvictClass(class Class) int {
	if !class.valid() {
		panic(fmt.Sprintf("preemptible: invalid class %d", class))
	}
	var evicted []*taskState
	p.mu.Lock()
	p.order.each(func(st *taskState) {
		if st.status == TaskQueued && st.class == class {
			st.status = TaskShed
			p.perClass[class].Shed++
			evicted = append(evicted, st)
		}
	})
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
	p.order.each(func(st *taskState) {
		if st.status == TaskQueued && (oldest.IsZero() || st.arrival.Before(oldest)) {
			oldest = st.arrival
		}
	})
	if oldest.IsZero() {
		return 0
	}
	d := now.Sub(oldest)
	if d < 0 {
		return 0
	}
	return d
}
