package core

import (
	"repro/internal/chaos"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/uintr"
)

// mech is the preemption delivery mechanism: it arms a deadline for a
// worker's current assignment generation and delivers a preemption to
// the worker when it expires.
type mech interface {
	arm(w *worker, deadline sim.Time, gen uint64)
	disarm(w *worker)
	// handlerCost is the receiver-side cost of taking the preemption
	// (interrupt/signal entry + return), charged on the worker core.
	handlerCost() sim.Time
}

// deliver is the single delivery point every mechanism routes through:
// the chaos injector (when configured) may drop the delivery (a lost
// interrupt), delay it (a contended bus), or defer it to the end of a
// timer-stall window. A delayed delivery carries the generation it was
// armed for, so if the worker has moved on it lands as a spurious
// delivery — exactly like late hardware interrupts.
func (s *System) deliver(w *worker, gen uint64) {
	switch act, delay := s.cfg.Chaos.OnDelivery(s.Eng.Now()); act {
	case chaos.Drop:
		return
	case chaos.Delay:
		s.Eng.Schedule(delay, func() { s.preempt(w, gen) })
		return
	}
	s.preempt(w, gen)
}

// uintrMech delivers preemptions with LibUtimer + SENDUIPI: the paper's
// mechanism. One uintr receiver and one LibUtimer deadline slot per
// worker; the timer core polls deadlines and fires user interrupts.
type uintrMech struct {
	s     *System
	recvs []*uintr.Receiver
	slots []*utimerSlot
}

// utimerSlot pairs the LibUtimer slot with its worker.
type utimerSlot struct {
	slot interface {
		Arm(deadline sim.Time)
		Disarm()
	}
}

func (m *uintrMech) init(rng *sim.RNG) {
	for i, w := range m.s.workers {
		w := w
		recv := uintr.NewReceiver(m.s.M, rng.Stream(uint64(0x1000+i)), func(v uintr.Vector) {
			// The handler body is charged by System.preempt; here we
			// only return from the interrupt context.
			m.s.deliver(w, w.armGen)
			m.recvs[w.id].UIRET()
		})
		m.recvs = append(m.recvs, recv)
		fd, err := recv.CreateFD(0)
		if err != nil {
			panic("core: uintr fd setup failed: " + err.Error())
		}
		m.slots = append(m.slots, &utimerSlot{slot: m.s.util.Register(fd)})
	}
}

func (m *uintrMech) arm(w *worker, deadline sim.Time, gen uint64) {
	w.armGen = gen
	m.slots[w.id].slot.Arm(deadline)
}

func (m *uintrMech) disarm(w *worker) {
	m.slots[w.id].slot.Disarm()
}

func (m *uintrMech) handlerCost() sim.Time {
	return m.s.M.Costs.UINTRHandlerEntry
}

// signalMech is the no-UINTR ablation: a per-worker one-shot kernel
// timer delivers SIGALRM through the contended signal bus. Two effects
// degrade it relative to UINTR (Fig. 8, orange line): the kernel timer
// granularity floor stretches every quantum, and the signal delivery
// latency (~15 µs, contention-sensitive) delays each preemption.
type signalMech struct {
	s      *System
	rng    *sim.RNG
	events []*sim.Event
}

func (m *signalMech) arm(w *worker, deadline sim.Time, gen uint64) {
	w.armGen = gen
	costs := m.s.M.Costs
	now := m.s.Eng.Now()
	// The kernel cannot fire earlier than its granularity floor.
	floor := now + costs.KernelTimerFloor
	if deadline < floor {
		deadline = floor
	}
	// timer_settime syscall + expiry jitter.
	deadline += costs.KernelTimerProgram +
		sim.Time(m.rng.Exp(float64(costs.KernelTimerJitterMean)))
	m.events[w.id] = m.s.Eng.At(deadline, func() {
		m.events[w.id] = nil
		m.s.sigBus.Deliver(func() { m.s.deliver(w, w.armGen) })
	})
}

func (m *signalMech) disarm(w *worker) {
	if ev := m.events[w.id]; ev != nil {
		m.s.Eng.Cancel(ev)
		m.events[w.id] = nil
	}
}

func (m *signalMech) handlerCost() sim.Time {
	// Signal frame setup + sigreturn: a kernel-mediated round trip.
	return m.s.M.Costs.KThreadSwitch
}

// ipiDecisionCost is what Shinjuku's dispatcher core pays for one
// scheduling decision: picking the next request and writing it to the
// worker's slot. Workers spin on a shared cacheline, so the dispatcher
// mediates every assignment — after each arrival, completion and
// preemption — the centralization that bounds the design's scalability.
const ipiDecisionCost = 120 * sim.Nanosecond

// ipiMech is Shinjuku's posted-IPI preemption (NSDI'19): the dispatcher
// core polls each worker's elapsed time and, once the quantum is spent,
// pays IPISend to write the interrupt through its mapped APIC. The
// interrupt lands IPIDeliverMean later (the request keeps running
// meanwhile) and the worker pays IPIHandler to take it.
type ipiMech struct{ s *System }

func (m *ipiMech) arm(w *worker, deadline sim.Time, gen uint64) {
	s := m.s
	s.Eng.At(deadline, func() {
		if w.gen != gen || w.cur == nil {
			return
		}
		s.dispatch(dispatchItem{cost: s.M.Costs.IPISend, fn: func() {
			if w.gen != gen || w.cur == nil {
				s.Metrics.Spurious++
				return
			}
			s.Metrics.IPISends++
			lat := hw.SampleLatency(s.M.RNG(), s.M.Costs.IPIDeliverMean, s.M.Costs.IPIDeliverMean/2)
			s.Eng.Schedule(lat, func() { s.deliver(w, gen) })
		}})
	})
}

// disarm does nothing: the dispatcher's check carries the generation it
// was armed for and ignores a worker that has moved on.
func (m *ipiMech) disarm(*worker) {}

func (m *ipiMech) handlerCost() sim.Time { return m.s.M.Costs.IPIHandler }

// Compile-time interface checks.
var (
	_ mech = (*uintrMech)(nil)
	_ mech = (*signalMech)(nil)
	_ mech = (*ipiMech)(nil)
)
