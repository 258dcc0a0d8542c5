// Package shinjuku models the Shinjuku single-address-space operating
// system (NSDI'19), the paper's main baseline: centralized dispatch with
// preemption driven by posted inter-processor interrupts from a
// dedicated dispatcher core that maps the APIC into its address space.
//
// Architectural differences from LibPreemptible captured by the model:
//
//   - The dispatcher is on the critical path of every scheduling event:
//     it processes arrivals, makes every assignment decision and sends
//     every preemption IPI, so its core saturates as load and
//     preemption rate grow.
//   - Preemption costs more end-to-end: hw.Costs.IPISend of dispatcher
//     time, then IPIDeliverMean until the interrupt lands, then
//     IPIHandler on the worker — versus SENDUIPI from a timer core and
//     a UINTRHandlerEntry user handler.
//   - The quantum is static: Shinjuku must be profiled per workload to
//     pick it (§V-A), where LibPreemptible adapts online.
//   - The mapped APIC bounds the number of addressable worker cores
//     (MaxAPICTargets) and requires ring-0 trust (§VII-B).
//
// The model is core.System with core.MechPostedIPI, which implements
// the first two; this package pins the configuration and the APIC cap.
package shinjuku

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
)

// MaxAPICTargets is the number of worker cores the mapped APIC design
// can address — the scalability ceiling discussed in §I and §V-B.
const MaxAPICTargets = 16

// Config parameterizes a Shinjuku instance.
type Config struct {
	// Workers is the worker-core count (≤ MaxAPICTargets).
	Workers int
	// Quantum is the static preemption quantum (0 = no preemption).
	Quantum sim.Time
	// Seed fixes the run.
	Seed uint64
}

// System is a running Shinjuku instance.
type System struct {
	*core.System
}

// New builds a Shinjuku system: centralized cFCFS on a dispatcher core
// that also sends the preemption IPIs. It panics if Workers exceeds the
// APIC addressing limit, mirroring the hardware constraint.
func New(cfg Config) *System {
	if cfg.Workers > MaxAPICTargets {
		panic(fmt.Sprintf("shinjuku: %d workers exceed the %d-core APIC limit", cfg.Workers, MaxAPICTargets))
	}
	return &System{core.New(core.Config{
		Workers: cfg.Workers,
		Quantum: cfg.Quantum,
		Policy:  sched.NewFCFSPreempt(),
		Mech:    core.MechPostedIPI,
		// core seeds its root RNG with Seed ^ 0x6c507265656d70; cancel
		// that so Shinjuku keeps its own stream, Seed ^ "shinjuku".
		Seed: cfg.Seed ^ 0x7368696e6a756b75 ^ 0x6c507265656d70,
	})}
}
