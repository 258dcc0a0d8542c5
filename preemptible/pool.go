package preemptible

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Workers is the number of worker goroutines (the worker threads of
	// the two-level scheduler).
	Workers int
	// Quantum is the initial time slice (DefaultQuantum if 0).
	Quantum time.Duration
	// Adaptive, when non-nil, runs the Algorithm 1 quantum controller.
	Adaptive *AdaptiveConfig
	// Discipline selects the dispatch order: FIFO (default,
	// arrivals-first) or EDF (deadline-ordered by SubmitOptions.Deadline).
	Discipline Discipline
}

// AdaptiveConfig is the public mirror of the paper's Algorithm 1
// hyperparameters (see internal/adaptive for the semantics).
type AdaptiveConfig struct {
	// LHigh/LLow are arrival-rate thresholds in requests/second
	// (typically 90% and 10% of max load).
	LHigh, LLow float64
	// K1, K2, K3 are quantum adjustment steps.
	K1, K2, K3 time.Duration
	// TMin/TMax bound the quantum.
	TMin, TMax time.Duration
	// QThreshold is the preempted-queue-length trigger.
	QThreshold int
	// Period is the controller cadence.
	Period time.Duration
}

// PoolStats is a snapshot of a Pool's counters and latency summary.
// Every submitted task lands in exactly one terminal bucket:
// Submitted = Completed + Shed + Failed + CancelledQueued +
// CancelledExecuting + ExpiredQueued + ExpiredExecuting + work still
// in flight — per class (PerClass), and in aggregate, whose buckets are
// the sums of the classes'.
type PoolStats struct {
	Submitted, Completed uint64
	Preemptions          uint64
	// Failed counts tasks that panicked mid-execution; the runtime
	// contained each fault (the worker survived) and the done callback
	// observed FailedLatency.
	Failed uint64
	// Shed counts tasks dropped without executing: pickup-deadline
	// (SubmitOptions.PickupTimeout) sheds and EvictClass evictions.
	Shed uint64
	// CancelledQueued counts tasks evicted by TaskHandle.Cancel before
	// they ever ran; CancelledExecuting counts tasks that had started
	// and unwound at a safepoint (including while preempted-in-queue).
	CancelledQueued, CancelledExecuting uint64
	// ExpiredQueued counts tasks whose hard completion deadline
	// (SubmitOptions.Expire) passed while they were still queued — they
	// were dropped at dequeue and never executed. ExpiredExecuting
	// counts tasks whose deadline passed after they started; they
	// unwound at their next safepoint through the cancel-unwind path.
	ExpiredQueued, ExpiredExecuting uint64
	// DegradedRuns counts tasks executed cooperatively (inline, no
	// preemption) because the runtime refused Launch — the graceful
	// degradation path, which never loses a task.
	DegradedRuns   uint64
	QuantumNow     time.Duration
	Mean, P50, P99 time.Duration
	// PerClass splits the terminal buckets by service class.
	PerClass [NumClasses]ClassStats
}

// Cancelled is the total of both cancellation buckets.
func (s PoolStats) Cancelled() uint64 { return s.CancelledQueued + s.CancelledExecuting }

// Expired is the total of both deadline-expiry buckets.
func (s PoolStats) Expired() uint64 { return s.ExpiredQueued + s.ExpiredExecuting }

// Pool is the paper's two-level scheduler on the live runtime: a
// dispatch order over fresh arrivals and preempted functions (by
// default arrivals first, giving preemptive priority to new — typically
// short — requests, the c-FCFS policy), worker goroutines running
// fn_launch/fn_resume, and an optional adaptive quantum controller.
type Pool struct {
	rt *Runtime

	mu     sync.Mutex
	cond   *sync.Cond
	order  order
	closed bool

	quantum  time.Duration
	hist     *stats.Histogram
	preempts uint64
	// perClass holds every terminal-bucket counter; Stats sums the
	// classes into the aggregate.
	perClass [NumClasses]ClassStats
	// running tracks tasks currently held by a worker (popped, not yet
	// settled or requeued); Drain raises their cancel flags when the
	// deadline passes, since they are in no queue to walk.
	running      map[*taskState]struct{}
	degradedRuns uint64
	// winLats and winArr are the Algorithm 1 controller's observation
	// window: latencies are recorded only while a controller runs to
	// drain them (adaptive), so a controller-less pool keeps none.
	adaptive bool
	winLats  []float64
	winArr   uint64

	workersWG sync.WaitGroup
	ctlStop   chan struct{}
	ctlOnce   sync.Once // guards controller shutdown across Close/Drain
	ctlWG     sync.WaitGroup

	// drainOnce makes Drain (and therefore Close) idempotent: the first
	// call performs the shutdown and records its result; later calls
	// wait for that shutdown to finish and return the same result.
	drainOnce sync.Once
	drainDone chan struct{}
	drainErr  error
}

// NewPool starts the workers (and controller, if configured).
func NewPool(rt *Runtime, cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		panic("preemptible: pool needs at least one worker")
	}
	q := cfg.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	p := &Pool{
		rt:        rt,
		order:     newOrder(cfg.Discipline),
		quantum:   q,
		hist:      stats.NewHistogram(),
		running:   make(map[*taskState]struct{}),
		adaptive:  cfg.Adaptive != nil,
		ctlStop:   make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Workers; i++ {
		p.workersWG.Add(1)
		go p.worker()
	}
	if cfg.Adaptive != nil {
		p.ctlWG.Add(1)
		go p.controller(*cfg.Adaptive)
	}
	return p
}

// SubmitOptions bundles one submission's scheduling metadata; the zero
// value is a ClassLC task with no deadline.
type SubmitOptions struct {
	// Class is the service class (default ClassLC).
	Class Class
	// Deadline, when non-zero, is the request's SLO deadline: under the
	// EDF discipline it orders execution; under FIFO it is carried as
	// metadata. Alone it is soft — late work still runs. With Expire set
	// it is additionally a hard completion deadline (see Expire).
	Deadline time.Time
	// Expire arms Deadline as a hard completion deadline: a worker
	// reaching the task after the deadline drops it at dequeue (done
	// observes ExpiredLatency, state TaskExpiredQueued, and no worker
	// time is spent), and a task already executing when the deadline
	// passes unwinds at its next Checkpoint/Yield through the
	// cancel-unwind path (ExpiredLatency, TaskExpiredExecuting). This
	// is end-to-end deadline propagation's server half: work whose
	// caller has given up is shed instead of finished.
	Expire bool
	// PickupTimeout, when positive, is a pickup deadline of
	// now+PickupTimeout: a task no worker reaches in time is shed — never
	// executed — and done observes ShedLatency. Under sustained overload
	// the queue sheds stale work instead of growing without bound in
	// useful-work terms.
	PickupTimeout time.Duration
}

// SubmitWithOptions enqueues a task; done (optional) is called with the
// task's sojourn latency when it completes (or a negative sentinel — see
// ShedLatency/CancelledLatency/FailedLatency/ExpiredLatency — when it
// does not). The returned handle cancels the task at any point in its
// lifecycle. The handle and the task's record are one allocation, and
// it is never recycled: the caller may keep the handle for as long as
// it likes. Submitting to a closed (or draining) pool returns ErrClosed
// and a nil handle — a submit racing Close is an ordinary, handleable
// outcome, not a crash; done is never called. A nil task or invalid
// options still panic: those are caller bugs, not races.
func (p *Pool) SubmitWithOptions(task Task, opts SubmitOptions, done func(latency time.Duration)) (*TaskHandle, error) {
	sub := &submission{}
	sub.h = TaskHandle{p: p, st: &sub.st}
	sub.st.done = done
	if err := p.enqueue(&sub.st, task, &opts); err != nil {
		return nil, err
	}
	return &sub.h, nil
}

// enqueue fills in a zeroed record (but for its done or wake) from the
// submission's options and admits it: the single admission path, one
// acquisition of Pool.mu.
func (p *Pool) enqueue(st *taskState, task Task, opts *SubmitOptions) error {
	if task == nil {
		panic("preemptible: nil task")
	}
	if !opts.Class.valid() {
		panic(fmt.Sprintf("preemptible: invalid class %d", opts.Class))
	}
	if opts.Expire && opts.Deadline.IsZero() {
		panic("preemptible: SubmitOptions.Expire without a Deadline")
	}
	if opts.PickupTimeout < 0 {
		panic("preemptible: negative PickupTimeout")
	}
	st.class, st.task, st.deadline = opts.Class, task, opts.Deadline
	if opts.Expire {
		st.expires = opts.Deadline.UnixNano()
	}
	if opts.PickupTimeout > 0 {
		st.pickup = time.Now().Add(opts.PickupTimeout)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.perClass[st.class].Submitted++
	p.winArr++
	st.arrival = time.Now()
	p.order.enqueue(st)
	p.mu.Unlock()
	p.cond.Signal()
	return nil
}

// waitRecords recycles the records of SubmitWaitWithOptions calls, each
// with its wake channel.
var waitRecords = sync.Pool{New: func() any {
	return &taskState{wake: make(chan time.Duration, 1)}
}}

// recycle clears a SubmitWaitWithOptions record, but for its wake
// channel, and gives it back for reuse.
func (st *taskState) recycle() {
	wake := st.wake
	*st = taskState{}
	st.wake = wake
	waitRecords.Put(st)
}

// SubmitWaitWithOptions is the synchronous submit: enqueue the task,
// wait for it to settle, and return its latency (or negative sentinel)
// and terminal state. cancel, when non-nil and closed while the task is
// still queued or running, cancels it exactly as TaskHandle.Cancel would
// (the wait then ends with CancelledLatency, or with the real outcome if
// the task got there first). Nobody else ever holds the task's record,
// so a completed call gives it back for reuse — after the outcome has
// arrived and been read — and the call allocates nothing in steady
// state. Returns ErrClosed without running the task if the pool is
// closed.
func (p *Pool) SubmitWaitWithOptions(task Task, opts SubmitOptions, cancel <-chan struct{}) (time.Duration, TaskState, error) {
	st := waitRecords.Get().(*taskState)
	if err := p.enqueue(st, task, &opts); err != nil {
		st.recycle()
		return 0, TaskQueued, err
	}
	var lat time.Duration
	select {
	case lat = <-st.wake:
	case <-cancel:
		p.cancel(st)
		lat = <-st.wake
	}
	// The wake-up orders this read after the settling worker's write.
	state := st.status
	if state == TaskCompleted {
		// Only a completed record is provably unreferenced: a worker
		// popped it, took it out of running, and sent on wake last. (A
		// record cancelled or evicted in the queue stays there as a
		// tombstone until a pop skips it.)
		st.recycle()
	}
	return lat, state, nil
}

// SetQuantum updates the time slice used for subsequent launches and
// resumes.
func (p *Pool) SetQuantum(q time.Duration) {
	if q <= 0 {
		panic("preemptible: non-positive quantum")
	}
	p.mu.Lock()
	p.quantum = q
	p.mu.Unlock()
}

// Quantum reports the current time slice.
func (p *Pool) Quantum() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quantum
}

// QueueLen reports queued work (fresh arrivals + preempted functions)
// not yet picked up by a worker; tombstones are not work. It walks the
// queue, so it is for tests and diagnostics, not a request path.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	p.order.each(func(st *taskState) {
		if st.status == TaskQueued || st.status == TaskPreempted {
			n++
		}
	})
	return n
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Preemptions:  p.preempts,
		DegradedRuns: p.degradedRuns,
		QuantumNow:   p.quantum,
		Mean:         time.Duration(p.hist.Mean()),
		P50:          time.Duration(p.hist.Median()),
		P99:          time.Duration(p.hist.P99()),
		PerClass:     p.perClass,
	}
	for _, c := range p.perClass {
		st.Submitted += c.Submitted
		st.Completed += c.Completed
		st.Failed += c.Failed
		st.Shed += c.Shed
		st.CancelledQueued += c.CancelledQueued
		st.CancelledExecuting += c.CancelledExecuting
		st.ExpiredQueued += c.ExpiredQueued
		st.ExpiredExecuting += c.ExpiredExecuting
	}
	return st
}

// Close waits for all queued and executing work to finish, then stops
// the workers and the controller. Submitting after Close returns
// ErrClosed. Close is Drain without a deadline; it is idempotent and
// safe to combine with Drain (whichever stops the pool first wins).
func (p *Pool) Close() {
	p.Drain(context.Background()) //nolint:errcheck // no deadline → no error
}

// Drain shuts the pool down gracefully: admission stops immediately
// (submits return ErrClosed), queued and in-flight work keeps running
// until it finishes or ctx expires, and on expiry the stragglers are
// cancelled through the ordinary cancel paths — queued work is evicted
// (done observes CancelledLatency without ever occupying a worker),
// executing and preempted work unwinds at its next safepoint. Drain
// returns once every worker has exited: nil after a complete drain,
// ctx.Err() if the deadline forced cancellation. Note that an
// executing straggler that reaches no further safepoint still runs to
// completion — cancellation is cooperative, exactly like preemption —
// so Drain's post-deadline wait is bounded by the longest
// safepoint-free stretch, not by total remaining work.
//
// Drain is idempotent: the first call performs the shutdown; later
// calls (Drain or Close, from any goroutine) block until that shutdown
// finishes and return its result. A Drain on an idle pool returns as
// soon as the workers observe the closed flag — no timers, no deadline
// wait.
func (p *Pool) Drain(ctx context.Context) error {
	p.drainOnce.Do(func() {
		p.drainErr = p.drain(ctx)
		close(p.drainDone)
	})
	<-p.drainDone
	return p.drainErr
}

func (p *Pool) drain(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	workersDone := make(chan struct{})
	go func() {
		p.workersWG.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		err = ctx.Err()
		p.cancelStragglers()
		<-workersDone
	}
	p.ctlOnce.Do(func() { close(p.ctlStop) })
	p.ctlWG.Wait()
	return err
}

// cancelStragglers cancels everything still alive at the drain
// deadline: queued tasks are tombstone-evicted exactly as by
// TaskHandle.Cancel, preempted and running tasks get their cancel
// flags raised so they unwind at the next safepoint.
func (p *Pool) cancelStragglers() {
	var evicted []*taskState
	p.mu.Lock()
	p.order.each(func(st *taskState) {
		switch st.status {
		case TaskQueued:
			p.evictQueuedLocked(st)
			evicted = append(evicted, st)
		case TaskPreempted:
			st.cancelReq.Store(1)
		}
	})
	for st := range p.running {
		st.cancelReq.Store(1)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, st := range evicted {
		st.settle(CancelledLatency)
	}
}

// next pops work in the pool's dispatch order. Tombstones — tasks
// cancel- or class-evicted while queued — are skipped here, and only
// here (their done already fired). The popped task's state moves to
// Running inside the lock, so a Cancel arriving after the pop takes the
// cooperative (flag) path instead of double-reporting an eviction.
// resume reports that the task was preempted before and is to be
// resumed, not launched; q is the time slice to give it, read in the
// same critical section. Returns with ok=false when the pool is closed
// and drained.
func (p *Pool) next() (st *taskState, resume bool, q time.Duration, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if st = p.order.next(); st != nil {
			if st.status == TaskCancelledQueued || st.status == TaskShed {
				continue
			}
			resume = st.status == TaskPreempted
			st.status = TaskRunning
			p.running[st] = struct{}{}
			return st, resume, p.quantum, true
		}
		if p.closed {
			return nil, false, 0, false
		}
		p.cond.Wait()
	}
}

// worker runs tasks until the pool is closed and drained. It keeps, per
// class, the context of the last task of that class that ended on it as
// the spare for its next launch of the class — the common case touches
// neither the runtime's free lists nor any runtime lock, and a BE task
// never lands on an LC context or the reverse. A spare is gone when a
// launched task is preempted (the task carries the context away into the
// preempted list) and surplus when a resumed task ends while a spare of
// its kind is already held.
func (p *Pool) worker() {
	defer p.workersWG.Done()
	var spares [NumClasses]*Ctx
	defer func() {
		for _, c := range spares {
			if c != nil {
				p.rt.release(c)
			}
		}
	}()
	for {
		st, resume, q, ok := p.next()
		if !ok {
			return
		}
		if resume {
			// No runtime.Gosched before a resume: arrivals come first
			// because the FIFO order looks at the arrival queue before
			// the preempted list, and the yield that used to sit here bought
			// nothing measurable on one processor (GOMAXPROCS=1 colocate:
			// 169 ops/s with it, 156 without — both are Go's 10 ms slice)
			// while costing colocate a third of its throughput on two
			// (DESIGN.md, "No yield before resume").
			if freed := st.fn.run(q); freed != nil {
				if spares[freed.class] == nil {
					spares[freed.class] = freed
				} else {
					p.rt.release(freed)
				}
			}
			p.afterRun(st)
			continue
		}
		if st.expires != 0 && time.Now().UnixNano() >= st.expires {
			// Hard completion deadline already passed: the caller has
			// given up, so executing the task would burn worker time on
			// doomed work. Checked before the pickup deadline so a request
			// carrying both settles as expired, matching what its client
			// observed. (A preempted task is not dropped at dequeue — it
			// already ran, so it unwinds at the wake-up safepoint and
			// settles as ExpiredExecuting.)
			p.finish(st, TaskExpiredQueued, ExpiredLatency)
			continue
		}
		if !st.pickup.IsZero() && time.Now().After(st.pickup) {
			p.finish(st, TaskShed, ShedLatency)
			continue
		}
		c, err := p.rt.acquire(st.class, spares[st.class])
		if err != nil {
			// Runtime closed under us (the spare went with it): run the
			// task cooperatively rather than losing it.
			spares[st.class] = nil
			p.runCooperative(st)
			continue
		}
		spares[st.class] = p.rt.start(&st.fn, c, st.task, &st.cancelReq, st.expires, q)
		p.afterRun(st)
	}
}

// runCooperative is the graceful-degradation path: the runtime refused
// Launch (closed mid-shutdown), so the task runs inline on the worker
// goroutine with a coop context — Checkpoint and Yield are no-ops, no
// preemption — and still completes and reports its latency. No
// accepted task is ever lost; a pending cancel still unwinds at
// the first safepoint even in degraded mode.
func (p *Pool) runCooperative(st *taskState) {
	ctx := &Ctx{coop: true, cancelReq: &st.cancelReq, expiresAt: st.expires}
	runTaskBody(st.task, ctx)
	switch {
	case ctx.DeadlineExpired():
		p.finish(st, TaskExpiredExecuting, ExpiredLatency)
	case ctx.CancelUnwound():
		p.finish(st, TaskCancelledExecuting, CancelledLatency)
	case ctx.failure != nil:
		p.finishFailed(st, ctx.failure)
	default:
		p.mu.Lock()
		p.degradedRuns++
		p.mu.Unlock()
		p.finish(st, TaskCompleted, time.Since(st.arrival))
	}
}

// afterRun settles a task whose time slice just ended, or requeues it
// if the slice ended in a preemption.
func (p *Pool) afterRun(st *taskState) {
	fn := &st.fn
	switch {
	case fn.Failed():
		p.finishFailed(st, fn.Err())
	case fn.Expired():
		p.finish(st, TaskExpiredExecuting, ExpiredLatency)
	case fn.Cancelled():
		p.finish(st, TaskCancelledExecuting, CancelledLatency)
	case fn.Completed():
		p.finish(st, TaskCompleted, time.Since(st.arrival))
	default:
		be := st.class == ClassBE // read before another worker can take st
		p.mu.Lock()
		p.preempts++
		st.status = TaskPreempted
		delete(p.running, st)
		p.order.requeue(st)
		p.mu.Unlock()
		p.cond.Signal()
		if be {
			// Every hand-off to a BE context's locked thread restarts Go's
			// 10 ms time slice, so a BE task bouncing between its thread
			// and this worker would keep the processor from every other
			// goroutine queued on it — a submitter included — for as long
			// as the task runs. Give them their turn before the next pop.
			runtime.Gosched()
		}
	}
}

// finish settles a task a worker holds in one of the terminal states
// that need no more than counting: completed, shed at its pickup
// deadline, expired (at dequeue or at a safepoint), or cancel-unwound.
// lat is what its submitter observes.
func (p *Pool) finish(st *taskState, status TaskState, lat time.Duration) {
	p.mu.Lock()
	pc := &p.perClass[st.class]
	switch status {
	case TaskCompleted:
		pc.Completed++
		p.hist.Record(int64(lat))
		if p.adaptive {
			p.winLats = append(p.winLats, float64(lat))
		}
	case TaskShed:
		pc.Shed++
	case TaskExpiredQueued:
		pc.ExpiredQueued++
	case TaskExpiredExecuting:
		pc.ExpiredExecuting++
	case TaskCancelledExecuting:
		pc.CancelledExecuting++
	default:
		panic("preemptible: finish with " + status.String())
	}
	st.status = status
	delete(p.running, st)
	p.mu.Unlock()
	st.settle(lat)
}

// finishFailed settles a task whose body panicked: the fault was
// contained by runTaskBody, the worker is unharmed, and the captured
// TaskError is published on the handle.
func (p *Pool) finishFailed(st *taskState, terr *TaskError) {
	p.mu.Lock()
	p.perClass[st.class].Failed++
	st.status = TaskFailed
	st.failure = terr
	delete(p.running, st)
	p.mu.Unlock()
	st.settle(FailedLatency)
}

// controller runs Algorithm 1 against the pool's live statistics.
func (p *Pool) controller(cfg AdaptiveConfig) {
	defer p.ctlWG.Done()
	period := cfg.Period
	if period <= 0 {
		period = time.Second
	}
	acfg := adaptive.Config{
		LHigh:          cfg.LHigh,
		LLow:           cfg.LLow,
		K1:             sim.Time(cfg.K1),
		K2:             sim.Time(cfg.K2),
		K3:             sim.Time(cfg.K3),
		TMin:           sim.Time(cfg.TMin),
		TMax:           sim.Time(cfg.TMax),
		QThreshold:     cfg.QThreshold,
		HeavyTailAlpha: 2.0,
		Period:         sim.Time(period),
	}
	ctl := adaptive.NewController(acfg, sim.Time(p.Quantum()))
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-p.ctlStop:
			return
		case <-ticker.C:
		}
		p.SetQuantum(time.Duration(ctl.Step(p.observe(period))))
	}
}

// observe takes the controller's window for one period and resets it:
// the arrival rate, the completed tasks' latencies, and the length of
// the preempted queue, which QThreshold is measured against.
func (p *Pool) observe(period time.Duration) adaptive.Observation {
	p.mu.Lock()
	defer p.mu.Unlock()
	obs := adaptive.Observation{
		Rate:      float64(p.winArr) / period.Seconds(),
		QueueLen:  p.order.preempted(),
		Latencies: p.winLats,
	}
	p.winLats, p.winArr = nil, 0
	return obs
}
