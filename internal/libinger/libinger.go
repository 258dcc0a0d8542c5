// Package libinger models the libinger/libturquoise baseline (ATC'20):
// the first general-purpose preemptive user-level threading library,
// built on regular kernel timer interrupts and signals.
//
// Its architecture is LibPreemptible's minus the hardware assist: the
// same user-level contexts and centralized FCFS-with-preemption
// discipline, but preemption is delivered through per-thread kernel
// timers and the contended signal path, so
//
//   - the usable quantum is floored by kernel timer granularity
//     (~60 µs — versus LibUtimer's 3 µs), and
//   - each preemption pays signal delivery (~15 µs, worse under
//     contention) instead of ~0.85 µs of UINTR delivery + handler.
//
// The model reuses core.System with MechKernelSignal, which implements
// exactly those costs; this package pins the configuration and
// documents the baseline's constraints (e.g. it has no adaptive-quantum
// story: the paper reports "NA" for the dynamic workload C).
package libinger

import (
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config parameterizes a libinger instance.
type Config struct {
	// Workers is the worker thread count.
	Workers int
	// Quantum is the requested preemption interval; values below the
	// kernel timer floor are honored only at floor granularity.
	Quantum sim.Time
	// Seed fixes the run.
	Seed uint64
}

// System is a running libinger instance.
type System struct {
	*core.System
}

// New builds a libinger system: centralized cFCFS with kernel-signal
// preemption and no dedicated timer core.
func New(cfg Config) *System {
	return &System{core.New(core.Config{
		Workers: cfg.Workers,
		Quantum: cfg.Quantum,
		Policy:  sched.NewFCFSPreempt(),
		Mech:    core.MechKernelSignal,
		Seed:    cfg.Seed ^ 0x6c6962696e676572,
	})}
}

// SupportsDynamicQuantum reports whether the baseline can adjust its
// quantum online. Libinger cannot (paper Table: workload C is NA): its
// periodic kernel timers are armed per thread at creation time, and
// re-arming them is a syscall storm the design does not attempt.
func (s *System) SupportsDynamicQuantum() bool { return false }

// EffectiveQuantum reports the quantum after the kernel granularity
// floor.
func (s *System) EffectiveQuantum() sim.Time {
	q := s.Quantum()
	if q == 0 {
		return 0
	}
	if floor := s.M.Costs.KernelTimerFloor; q < floor {
		return floor
	}
	return q
}
