package preemptible

import "container/heap"

// Discipline selects the Pool's dispatch order.
type Discipline int

const (
	// FIFO is the paper's default two-level discipline: fresh arrivals
	// first (in order), then the preempted list (in order).
	FIFO Discipline = iota
	// EDF orders all runnable work — fresh and preempted alike — by
	// deadline (earliest first; deadline-free work last). Set
	// SubmitOptions.Deadline to express per-request SLOs (§III-B).
	EDF
)

// order is a Pool's dispatch order, the live twin of the simulator's
// sched.Policy: the one place a scheduling policy lives. Pool.mu guards
// every call. An entry leaves an order only through next — a task
// cancelled or evicted while queued stays in place as a tombstone
// (lazy delete keeps a heap's invariants intact), and Pool.next skips
// it.
type order interface {
	// enqueue admits a fresh task.
	enqueue(st *taskState)
	// requeue admits a task that was preempted.
	requeue(st *taskState)
	// next removes and returns the next entry, tombstone or not (nil
	// when the order is empty).
	next() *taskState
	// each calls f on every queued entry, tombstones included.
	each(f func(*taskState))
	// preempted reports how many preempted tasks are queued: the
	// Algorithm 1 controller's queue signal.
	preempted() int
}

// newOrder builds the order a discipline names.
func newOrder(d Discipline) order {
	if d == EDF {
		return &edfOrder{}
	}
	return &fifoOrder{}
}

// fifoOrder is the paper's c-FCFS order: fresh arrivals first, in
// order — serving them ahead of preempted work is what gives new,
// typically short, requests preemptive priority — then the preempted
// list, in order.
type fifoOrder struct {
	arrivals []*taskState
	arrHead  int
	requeued []*taskState
	reqHead  int
}

func (o *fifoOrder) enqueue(st *taskState) { o.arrivals = append(o.arrivals, st) }

func (o *fifoOrder) requeue(st *taskState) { o.requeued = append(o.requeued, st) }

func (o *fifoOrder) next() *taskState {
	if st := popQueue(&o.arrivals, &o.arrHead); st != nil {
		return st
	}
	return popQueue(&o.requeued, &o.reqHead)
}

func (o *fifoOrder) each(f func(*taskState)) {
	for _, st := range o.arrivals[o.arrHead:] {
		f(st)
	}
	for _, st := range o.requeued[o.reqHead:] {
		f(st)
	}
}

// preempted is the preempted list's length: only fresh arrivals are
// ever tombstoned, so every entry of it is live.
func (o *fifoOrder) preempted() int { return len(o.requeued) - o.reqHead }

// popQueue pops the head of one of the two FIFO queues (nil when it is
// empty). The slot is cleared so the queue keeps no record alive, an
// emptied queue rewinds onto its own backing array — the steady state
// of a pool that keeps up appends without allocating — and a queue that
// never empties is compacted once its dead prefix outgrows its tail.
func popQueue(q *[]*taskState, head *int) *taskState {
	if *head == len(*q) {
		return nil
	}
	st := (*q)[*head]
	(*q)[*head] = nil
	*head++
	switch {
	case *head == len(*q):
		*q, *head = (*q)[:0], 0
	case *head > 256 && *head*2 >= len(*q):
		*q, *head = append([]*taskState(nil), (*q)[*head:]...), 0
	}
	return st
}

// edfOrder is one deadline-ordered heap of fresh and preempted tasks
// alike.
type edfOrder struct {
	q   edfQueue
	seq uint64
	// pre counts the heap's preempted entries. A preempted task keeps
	// status TaskPreempted until it is popped (a cancel only raises its
	// flag), so next can tell which entries leave the count.
	pre int
}

func (o *edfOrder) push(st *taskState) {
	o.seq++
	heap.Push(&o.q, &edfItem{st: st, seq: o.seq})
}

func (o *edfOrder) enqueue(st *taskState) { o.push(st) }

func (o *edfOrder) requeue(st *taskState) {
	o.pre++
	o.push(st)
}

func (o *edfOrder) next() *taskState {
	if len(o.q) == 0 {
		return nil
	}
	st := heap.Pop(&o.q).(*edfItem).st
	if st.status == TaskPreempted {
		o.pre--
	}
	return st
}

func (o *edfOrder) each(f func(*taskState)) {
	for _, it := range o.q {
		f(it.st)
	}
}

func (o *edfOrder) preempted() int { return o.pre }

// edfItem is one entry of the EDF heap: a fresh task or a preempted one
// (st.status says which). seq, the admission sequence, breaks deadline
// ties first-come first-served.
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
