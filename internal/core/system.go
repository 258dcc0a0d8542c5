// Package core implements LibPreemptible on the simulator: the paper's
// preemptive user-level threading runtime (§III-D, §IV).
//
// A System owns a simulated machine laid out as
//
//	core 0..W-1   worker threads running preemptible functions
//	core W        dispatcher (network) thread
//	core W+1      LibUtimer timer thread (UINTR mode only)
//
// Requests are submitted to the dispatcher, which charges a per-request
// dispatch cost and feeds the scheduling policy (centralized mode) or
// per-worker local FIFO queues (two-level mode, Fig. 6). Workers run
// each request as a preemptible function: when its time quantum expires
// the preemption mechanism (UINTR via LibUtimer by default, kernel
// signals in the no-UINTR ablation and the Libinger baseline, a posted
// IPI from the dispatcher core for the Shinjuku baseline) interrupts
// the worker, the context is saved to the running list, and the local
// scheduler picks the next function — the fn_launch / fn_resume /
// fn_completed loop of §IV-C.
package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/fcontext"
	"repro/internal/hw"
	"repro/internal/ktime"
	"repro/internal/sched"
	"repro/internal/schedtrace"
	"repro/internal/sim"
	"repro/internal/utimer"
)

// MechKind selects the preemption delivery mechanism.
type MechKind int

const (
	// MechUINTR uses LibUtimer + user interrupts (the paper's system).
	MechUINTR MechKind = iota
	// MechKernelSignal uses per-worker kernel timers and signals — the
	// "LibPreemptible w/o UINTR" ablation (orange line in Fig. 8).
	MechKernelSignal
	// MechNone disables preemption (run-to-completion).
	MechNone
	// MechPostedIPI is Shinjuku's design: the dispatcher core sends a
	// posted inter-processor interrupt when a quantum expires, and
	// makes every scheduling decision itself (see internal/shinjuku).
	MechPostedIPI
)

func (k MechKind) String() string {
	switch k {
	case MechUINTR:
		return "uintr"
	case MechKernelSignal:
		return "ksignal"
	case MechNone:
		return "none"
	case MechPostedIPI:
		return "ipi"
	default:
		return fmt.Sprintf("MechKind(%d)", int(k))
	}
}

// Config parameterizes a System.
type Config struct {
	// Workers is the number of worker cores (the paper's Fig. 8 setup
	// uses 4 workers + 1 dispatcher + 1 timer).
	Workers int
	// Quantum is the initial time quantum; 0 disables preemption.
	Quantum sim.Time
	// Policy is the centralized queue discipline (default cFCFS).
	// Ignored when TwoLevel is set.
	Policy sched.Policy
	// TwoLevel enables the paper's two-level scheduler: dispatcher does
	// join-shortest-queue into per-worker local FIFO queues; preempted
	// contexts go to the global running list; idle workers pull local
	// queue → running list → steal.
	TwoLevel bool
	// Mech selects the preemption mechanism (default MechUINTR).
	Mech MechKind
	// CtxPoolSize bounds in-flight requests (default 1<<16).
	CtxPoolSize int
	// Costs overrides the calibrated machine costs (nil = defaults).
	Costs *hw.Costs
	// Seed makes the run deterministic.
	Seed uint64
	// QuantumFor, when set, computes a per-request quantum from the
	// request and the current system quantum (the per-request deadline
	// hook of §III-B). Return 0 to disable preemption for the request.
	QuantumFor func(r *sched.Request, systemQuantum sim.Time) sim.Time
	// OnComplete observes every completed request.
	OnComplete func(r *sched.Request)
	// CancelExpired enables deadline cancellation (§III-B): a request
	// whose Deadline has already passed when a worker would run it is
	// dropped instead, releasing resources for requests that can still
	// meet their SLO. Requests without a Deadline are never cancelled.
	CancelExpired bool
	// OnCancel observes every cancelled request.
	OnCancel func(r *sched.Request)
	// Tracer, when set, receives every scheduling event (see
	// internal/schedtrace). Adds per-event overhead; leave nil in
	// large-scale experiments.
	Tracer Tracer
	// Chaos, when set, routes every preemption delivery and worker
	// assignment through a seeded fault injector (drops, delays, timer
	// stalls, worker jitter). Deterministic: the same injector Config
	// and workload reproduce the same fault sequence.
	Chaos *chaos.Injector
}

// Tracer observes scheduling events.
type Tracer interface {
	Trace(ev schedtrace.Event)
}

// System is a running LibPreemptible instance.
type System struct {
	Eng *sim.Engine
	M   *hw.Machine

	cfg     Config
	policy  sched.Policy
	pool    *fcontext.Pool
	running fcontext.RunningList // global preempted list (two-level mode)
	quantum sim.Time

	util   *utimer.Utimer
	sigBus *ktime.SignalBus
	mech   mech

	workers      []*worker
	dispatchCore *hw.Core
	dispatchQ    []dispatchItem
	dispatchHead int
	dispatchBusy bool
	rrNext       int
	// decisionCost, when positive, routes every scheduling decision
	// through the dispatcher core at that cost (MechPostedIPI).
	decisionCost sim.Time

	inflight   uint64
	statsSince sim.Time

	Metrics Metrics
}

// New builds a System on a fresh engine. Call Run/RunFor on the
// embedded engine (or use workload generators that do).
func New(cfg Config) *System {
	if cfg.Workers <= 0 {
		panic("core: need at least one worker")
	}
	if cfg.CtxPoolSize == 0 {
		cfg.CtxPoolSize = 1 << 16
	}
	costs := hw.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed ^ 0x6c507265656d70)
	nCores := cfg.Workers + 2 // + dispatcher + timer
	m := hw.NewMachine(eng, nCores, costs, rng)

	s := &System{
		Eng:     eng,
		M:       m,
		cfg:     cfg,
		quantum: cfg.Quantum,
		pool:    fcontext.NewPool(cfg.CtxPoolSize, 0),
		Metrics: newMetrics(),
	}
	s.policy = cfg.Policy
	if s.policy == nil {
		s.policy = sched.NewFCFSPreempt()
	}
	s.dispatchCore = m.Core(cfg.Workers)

	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, newWorker(s, i, m.Core(i)))
	}

	switch cfg.Mech {
	case MechUINTR:
		s.util = utimer.New(m, rng.Stream(101), utimer.Config{})
		um := &uintrMech{s: s}
		um.init(rng)
		s.mech = um
	case MechKernelSignal:
		s.sigBus = ktime.NewSignalBus(m, rng.Stream(102))
		s.mech = &signalMech{s: s, rng: rng.Stream(103), events: make([]*sim.Event, cfg.Workers)}
	case MechNone:
		s.mech = nil
	case MechPostedIPI:
		s.mech = &ipiMech{s: s}
		s.decisionCost = ipiDecisionCost
	default:
		panic(fmt.Sprintf("core: unknown mech %v", cfg.Mech))
	}
	return s
}

// Quantum reports the current system-wide time quantum.
func (s *System) Quantum() sim.Time { return s.quantum }

// SetQuantum updates the system-wide time quantum (the Quantum Control
// input of Fig. 5). It affects deadlines armed from now on.
func (s *System) SetQuantum(q sim.Time) {
	if q < 0 {
		panic("core: negative quantum")
	}
	s.quantum = q
}

// Workers reports the worker count.
func (s *System) Workers() int { return len(s.workers) }

// Utimer exposes the timer service (nil unless MechUINTR).
func (s *System) Utimer() *utimer.Utimer { return s.util }

// QueueLen reports the number of requests waiting to run (dispatcher
// backlog + policy/local queues + preempted).
func (s *System) QueueLen() int {
	n := 0
	for _, it := range s.dispatchQ[s.dispatchHead:] {
		if it.r != nil {
			n++
		}
	}
	if s.cfg.TwoLevel {
		for _, w := range s.workers {
			n += len(w.local) - w.localHead
		}
		n += s.running.Len()
	} else {
		n += s.policy.Len()
	}
	return n
}

// PreemptedLen reports how many preempted requests are waiting.
func (s *System) PreemptedLen() int {
	if s.cfg.TwoLevel {
		return s.running.Len()
	}
	if p, ok := s.policy.(*sched.FCFSPreempt); ok {
		return p.PreemptedLen()
	}
	return 0
}

// Submit delivers a request to the dispatcher (network) thread. The
// request's Arrival should be the current virtual time.
func (s *System) Submit(r *sched.Request) {
	if r == nil {
		panic("core: Submit(nil)")
	}
	s.Metrics.Submitted++
	s.Metrics.winArrivals++
	s.inflight++
	s.trace(schedtrace.Submit, r, -1)
	s.dispatch(dispatchItem{r: r, cost: s.M.Costs.DispatchCost})
}

// dispatchItem is one unit of dispatcher-core work: an arrival to admit
// (r), or a mechanism's costed step (fn).
type dispatchItem struct {
	r    *sched.Request
	cost sim.Time
	fn   func()
}

// dispatch queues work on the dispatcher core, which runs it in order,
// one segment at a time.
func (s *System) dispatch(it dispatchItem) {
	s.dispatchQ = append(s.dispatchQ, it)
	if !s.dispatchBusy {
		s.dispatchLoop()
	}
}

// dispatchLoop drains the dispatcher backlog. The serial dispatcher is
// a real throughput ceiling, as in all centralized-dispatch systems.
func (s *System) dispatchLoop() {
	if s.dispatchHead >= len(s.dispatchQ) {
		s.dispatchQ = s.dispatchQ[:0]
		s.dispatchHead = 0
		s.dispatchBusy = false
		return
	}
	s.dispatchBusy = true
	it := s.dispatchQ[s.dispatchHead]
	s.dispatchQ[s.dispatchHead] = dispatchItem{}
	s.dispatchHead++
	s.dispatchCore.Start(it.cost, func() {
		if it.r != nil {
			s.enqueue(it.r)
		} else {
			it.fn()
		}
		s.dispatchLoop()
	})
}

// trace emits a scheduling event if a tracer is attached.
func (s *System) trace(kind schedtrace.Kind, r *sched.Request, worker int) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Trace(schedtrace.Event{
		Time:   s.Eng.Now(),
		Kind:   kind,
		ReqID:  r.ID,
		Class:  r.Class,
		Worker: worker,
	})
}

// enqueue admits a dispatched request to the scheduling structures and
// wakes a worker if one is idle.
func (s *System) enqueue(r *sched.Request) {
	s.trace(schedtrace.Dispatch, r, -1)
	if s.cfg.TwoLevel {
		w := s.shortestQueueWorker()
		w.local = append(w.local, r)
		if w.idle() {
			s.scheduleNext(w)
		}
		return
	}
	s.policy.Enqueue(r)
	if w := s.idleWorker(); w != nil {
		s.scheduleNext(w)
	}
}

func (s *System) shortestQueueWorker() *worker {
	best := -1
	bestLen := int(^uint(0) >> 1)
	n := len(s.workers)
	for i := 0; i < n; i++ {
		w := s.workers[(s.rrNext+i)%n]
		l := len(w.local) - w.localHead
		if w.cur != nil || w.starting {
			l++ // account for the in-service request
		}
		if l < bestLen {
			bestLen = l
			best = (s.rrNext + i) % n
		}
	}
	s.rrNext = (best + 1) % n
	return s.workers[best]
}

func (s *System) idleWorker() *worker {
	n := len(s.workers)
	for i := 0; i < n; i++ {
		w := s.workers[(s.rrNext+i)%n]
		if w.idle() {
			s.rrNext = (w.id + 1) % n
			return w
		}
	}
	return nil
}

// pickFor chooses the next request for worker w under the configured
// scheduling structure.
func (s *System) pickFor(w *worker) *sched.Request {
	if !s.cfg.TwoLevel {
		return s.policy.Next()
	}
	if r := w.popLocal(); r != nil {
		return r
	}
	if c := s.running.Pop(); c != nil {
		return c.Data.(*sched.Request)
	}
	// Work stealing from the longest local queue.
	var victim *worker
	max := 0
	for _, v := range s.workers {
		if l := len(v.local) - v.localHead; l > max {
			max = l
			victim = v
		}
	}
	if victim != nil {
		s.Metrics.Steals++
		return victim.popLocal()
	}
	return nil
}

// requeue re-admits a preempted request.
func (s *System) requeue(r *sched.Request) {
	if s.cfg.TwoLevel {
		s.running.Push(r.Ctx)
		if w := s.idleWorker(); w != nil {
			s.scheduleNext(w)
		}
		return
	}
	s.policy.Requeue(r)
	if w := s.idleWorker(); w != nil {
		s.scheduleNext(w)
	}
}

// quantumFor resolves the effective quantum for a request.
func (s *System) quantumFor(r *sched.Request) sim.Time {
	if s.cfg.QuantumFor != nil {
		return s.cfg.QuantumFor(r, s.quantum)
	}
	if r.QuantumOverride > 0 {
		return r.QuantumOverride
	}
	return s.quantum
}

// scheduleNext assigns work to an idle worker. With a decisionCost the
// dispatcher core makes the decision: the worker asks once and waits,
// not idle, until the dispatcher gets to it.
func (s *System) scheduleNext(w *worker) {
	if !w.idle() {
		return
	}
	if s.decisionCost > 0 {
		w.deciding = true
		s.dispatch(dispatchItem{cost: s.decisionCost, fn: func() {
			w.deciding = false
			s.pickNext(w)
		}})
		return
	}
	s.pickNext(w)
}

// pickNext is the scheduling decision for an idle worker: assign the
// next runnable request, or park.
func (s *System) pickNext(w *worker) {
	for {
		r := s.pickFor(w)
		if r == nil {
			w.park()
			return
		}
		if s.cfg.CancelExpired && r.Deadline > 0 && s.Eng.Now() > r.Deadline {
			s.cancel(r)
			continue
		}
		s.assign(w, r)
		return
	}
}

// cancel drops an expired request (deadline cancellation, §III-B).
func (s *System) cancel(r *sched.Request) {
	r.Cancelled = true
	r.Finish = s.Eng.Now()
	if r.Ctx != nil {
		s.pool.Put(r.Ctx)
		r.Ctx = nil
	}
	s.inflight--
	s.Metrics.Cancelled++
	if s.cfg.OnCancel != nil {
		s.cfg.OnCancel(r)
	}
}

// assign attaches a context (fn_launch) or switches to the saved one
// (fn_resume), charges the corresponding cost, then starts the work
// segment with an armed preemption deadline.
func (s *System) assign(w *worker, r *sched.Request) {
	w.unpark()
	w.gen++
	gen := w.gen
	w.cur = r

	// A chaos-injected slow core inflates this assignment's overhead.
	var overhead sim.Time = s.cfg.Chaos.WorkerOverhead()
	if r.Ctx == nil {
		ctx, err := s.pool.Get()
		if err != nil {
			panic(fmt.Sprintf("core: context pool exhausted at %d in-flight (size the pool to peak concurrency)", s.pool.Capacity()))
		}
		ctx.Data = r
		r.Ctx = ctx
		overhead += s.M.Costs.CtxAlloc
	} else {
		// Resuming a preempted function: context switch plus the cache
		// refill of returning to a core other work has run on.
		overhead += s.M.Costs.CtxSwitch + s.M.Costs.CtxRefill
	}
	w.starting = true
	w.core.Start(overhead, func() {
		w.starting = false
		if w.gen != gen || w.cur != r {
			return
		}
		s.startWork(w, r, gen)
	})
}

func (s *System) startWork(w *worker, r *sched.Request, gen uint64) {
	now := s.Eng.Now()
	if !r.Started() {
		r.Start = now
	}
	s.trace(schedtrace.Start, r, w.id)
	if s.mech != nil {
		if q := s.quantumFor(r); q > 0 {
			s.mech.arm(w, now+q, gen)
		}
	}
	w.seg = w.core.Start(r.Remaining, func() { s.complete(w, r) })
}

// complete finishes a request: context freed to the pool for reuse,
// stats recorded, next request scheduled (fn_completed: no reschedule
// needed for the finished function).
func (s *System) complete(w *worker, r *sched.Request) {
	if s.mech != nil {
		s.mech.disarm(w)
	}
	now := s.Eng.Now()
	r.Remaining = 0
	r.Finish = now
	s.pool.Put(r.Ctx)
	r.Ctx = nil
	w.cur = nil
	w.seg = nil
	s.inflight--
	s.trace(schedtrace.Complete, r, w.id)
	s.Metrics.record(r)
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(r)
	}
	s.scheduleNext(w)
}

// preempt handles a preemption delivery for generation gen: abort the
// work segment, save the context to the running list, charge handler +
// context-switch costs, and let the local scheduler decide next.
func (s *System) preempt(w *worker, gen uint64) {
	if w.cur == nil || w.gen != gen || w.seg == nil {
		// The request completed (or was switched) while the interrupt
		// was in flight — a spurious delivery, ignored by the handler.
		s.Metrics.Spurious++
		return
	}
	r := w.cur
	consumed := w.seg.Abort()
	r.Remaining -= consumed
	w.cur = nil
	w.seg = nil

	if r.Remaining <= 0 {
		// Deadline and completion coincided; finish the request.
		r.Remaining = 0
		overhead := s.mech.handlerCost()
		w.starting = true
		w.core.Start(overhead, func() {
			w.starting = false
			now := s.Eng.Now()
			r.Finish = now
			s.pool.Put(r.Ctx)
			r.Ctx = nil
			s.inflight--
			s.trace(schedtrace.Complete, r, w.id)
			s.Metrics.record(r)
			if s.cfg.OnComplete != nil {
				s.cfg.OnComplete(r)
			}
			s.scheduleNext(w)
		})
		return
	}

	r.Preemptions++
	s.Metrics.Preemptions++
	s.trace(schedtrace.Preempt, r, w.id)
	overhead := s.mech.handlerCost() + s.M.Costs.CtxSwitch
	w.starting = true
	w.core.Start(overhead, func() {
		w.starting = false
		s.requeue(r)
		s.scheduleNext(w)
	})
}
