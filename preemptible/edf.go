package preemptible

import (
	"container/heap"
	"time"
)

// Discipline selects the Pool's queue ordering.
type Discipline int

const (
	// FIFO is the paper's default two-level discipline: fresh arrivals
	// first (in order), then the preempted list (in order).
	FIFO Discipline = iota
	// EDF orders all runnable work — fresh and preempted alike — by
	// deadline (earliest first; deadline-free work last). Use with
	// SubmitDeadline to express per-request SLOs (§III-B).
	EDF
)

// edfItem is one entry of the EDF heap: a fresh task or a preempted one
// (st.status says which). st links the item to its submission record so
// TaskHandle.Cancel can tombstone it in place (lazy delete — the heap
// is never spliced, so its invariants hold).
type edfItem struct {
	st  *taskState
	seq uint64
}

// edfQueue is a deadline-ordered heap.
type edfQueue []*edfItem

func (q edfQueue) Len() int { return len(q) }

func (q edfQueue) Less(i, j int) bool {
	di, dj := q[i].st.deadline, q[j].st.deadline // zero = none
	switch {
	case di.IsZero() && dj.IsZero():
		return q[i].seq < q[j].seq
	case di.IsZero():
		return false
	case dj.IsZero():
		return true
	case !di.Equal(dj):
		return di.Before(dj)
	default:
		return q[i].seq < q[j].seq
	}
}

func (q edfQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *edfQueue) Push(x any) { *q = append(*q, x.(*edfItem)) }

func (q *edfQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// SubmitDeadline enqueues a task carrying an SLO deadline. Under the
// EDF discipline the deadline orders execution; under FIFO it is
// carried but ignored. done (optional) receives the sojourn latency.
// The returned handle cancels the task at any point in its lifecycle.
// Returns ErrClosed after Close/Drain, like Submit.
func (p *Pool) SubmitDeadline(task Task, deadline time.Time, done func(latency time.Duration)) (*TaskHandle, error) {
	return p.SubmitClassDeadline(ClassLC, task, deadline, done)
}

// SubmitClassDeadline is SubmitDeadline with an explicit service class;
// like SubmitClass, a closed admission gate refuses the task at the
// door with RejectedLatency. The deadline orders execution (EDF) but is
// soft: late work still runs. For hard expiry — drop at dequeue, unwind
// at the next safepoint — use SubmitWithOptions with Expire set.
func (p *Pool) SubmitClassDeadline(class Class, task Task, deadline time.Time, done func(latency time.Duration)) (*TaskHandle, error) {
	return p.SubmitWithOptions(task, SubmitOptions{Class: class, Deadline: deadline}, done)
}

// pushEDFLocked enqueues a task under the EDF discipline (caller holds
// mu).
func (p *Pool) pushEDFLocked(st *taskState) {
	p.seq++
	heap.Push(&p.edf, &edfItem{st: st, seq: p.seq})
}

// popEDFLocked removes the earliest-deadline live item, discarding
// cancel-evicted tombstones on the way (their done already fired at
// Cancel time). Returns nil when no live work remains.
func (p *Pool) popEDFLocked() *edfItem {
	for len(p.edf) > 0 {
		it := heap.Pop(&p.edf).(*edfItem)
		if it.st.status == TaskCancelledQueued || it.st.status == TaskShed {
			p.tombstones--
			continue
		}
		return it
	}
	return nil
}
