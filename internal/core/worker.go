package core

import (
	"repro/internal/hw"
	"repro/internal/sched"
)

// worker is one worker thread pinned to a core. Its local queue is used
// only in two-level mode.
type worker struct {
	s        *System
	id       int
	core     *hw.Core
	cur      *sched.Request
	seg      *hw.Segment
	starting bool   // executing ctx-alloc/switch or handler overhead
	gen      uint64 // assignment generation (guards stale interrupts)
	parked   bool   // blocked waiting for work
	deciding bool   // a decision for it is queued on the dispatcher

	local     []*sched.Request
	localHead int

	// armGen records the generation captured when the preemption
	// deadline was armed, consumed by the mechanism's delivery handler.
	armGen uint64
}

func newWorker(s *System, id int, core *hw.Core) *worker {
	return &worker{s: s, id: id, core: core}
}

// idle reports whether the worker can accept a new assignment.
func (w *worker) idle() bool { return w.cur == nil && !w.starting && !w.deciding }

// park marks the worker blocked (no runnable work). In UINTR mode the
// receiver transitions to the kernel-blocked state, so a subsequent
// delivery takes the slower unblock path — matching hardware behaviour.
func (w *worker) park() {
	w.parked = true
	if um, ok := w.s.mech.(*uintrMech); ok {
		um.recvs[w.id].SetBlocked(true)
	}
}

// unpark marks the worker runnable again.
func (w *worker) unpark() {
	if !w.parked {
		return
	}
	w.parked = false
	if um, ok := w.s.mech.(*uintrMech); ok {
		um.recvs[w.id].SetBlocked(false)
	}
}

// popLocal removes the head of the local queue (two-level mode).
func (w *worker) popLocal() *sched.Request {
	if w.localHead >= len(w.local) {
		return nil
	}
	r := w.local[w.localHead]
	w.local[w.localHead] = nil
	w.localHead++
	if w.localHead > 64 && w.localHead*2 >= len(w.local) {
		w.local = append([]*sched.Request(nil), w.local[w.localHead:]...)
		w.localHead = 0
	}
	return r
}
