// Package chaos is a deterministic, seeded fault injector: it degrades
// the *substrate* (timer delivery, worker cores, arrival processes, and
// for the live server its byte streams, filesystem, task bodies and
// shards) while leaving the scheduler's correctness obligations intact,
// so tests can assert "no work lost, counters exact" under faults.
//
// Injector plugs into the simulator's core.System (Config.Chaos): every
// preemption delivery is routed through OnDelivery, which can drop it (a
// lost UINTR), delay it (a contended bus), or stall it (the timer
// service wedged for a window of virtual time). Worker assignment
// overhead can be inflated (a slow/jittery core), and arrival storms can
// be scheduled on the engine. All decisions come from a seeded RNG: the
// same Config produces the same fault sequence, event for event.
//
// The package replaces the hand-rolled degradation wiring that used to
// live only in internal/core's fault-injection tests.
package chaos

import (
	"fmt"

	"repro/internal/sim"
)

// Action is the injector's verdict on one preemption delivery.
type Action int

const (
	// Deliver passes the delivery through unmodified.
	Deliver Action = iota
	// Drop loses the delivery entirely; the victim request runs to its
	// next safepoint/completion without being preempted.
	Drop
	// Delay defers the delivery by the returned duration; a delivery
	// arriving after its assignment generation changed is spurious and
	// ignored by the handler, exactly like a late hardware interrupt.
	Delay
)

func (a Action) String() string {
	switch a {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Window is a half-open interval [From, To) of virtual time.
type Window struct {
	From, To sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.From && t < w.To }

// Storm is a burst of simultaneous arrivals injected at a point in
// virtual time.
type Storm struct {
	// At is when the storm hits.
	At sim.Time
	// Count is how many requests arrive at once.
	Count int
}

// Config describes one deterministic fault scenario. The zero value
// injects nothing.
type Config struct {
	// Seed fixes every probabilistic decision the injector makes.
	Seed uint64

	// DropProb is the probability a preemption delivery is lost.
	DropProb float64
	// DelayProb is the probability a delivery is deferred by an
	// exponential draw with mean DelayMean.
	DelayProb float64
	// DelayMean is the mean deferral of a delayed delivery.
	DelayMean sim.Time

	// Stalls are windows during which the timer service is wedged:
	// every delivery inside a window is deferred to the window's end
	// (the burst on recovery is part of the fault model).
	Stalls []Window

	// Burst, when non-nil, runs a Gilbert–Elliott correlated-loss chain
	// over the delivery stream: losses cluster into bursts instead of
	// the i.i.d. DropProb coin flips. The chain is stepped once per
	// delivery (after stall windows, before the i.i.d. faults); a
	// delivery the chain drops is counted in BurstDropped. Burst.Seed 0
	// derives the chain's seed from Config.Seed.
	Burst *GEConfig

	// WorkerJitterProb inflates a worker assignment's overhead with an
	// exponential spike of mean WorkerJitterMean — a slow or contended
	// core.
	WorkerJitterProb float64
	// WorkerJitterMean is the mean of the injected overhead spike.
	WorkerJitterMean sim.Time

	// Storms are arrival bursts; ScheduleStorms installs them on an
	// engine.
	Storms []Storm
}

// Counters tallies what the injector actually did. Deterministic: the
// same Config against the same workload reproduces them exactly.
type Counters struct {
	// Delivered counts deliveries passed through unmodified.
	Delivered uint64
	// Dropped counts deliveries lost to DropProb.
	Dropped uint64
	// BurstDropped counts deliveries lost to the Gilbert–Elliott burst
	// chain (Config.Burst).
	BurstDropped uint64
	// Delayed counts deliveries deferred by DelayProb.
	Delayed uint64
	// Stalled counts deliveries deferred to the end of a stall window.
	Stalled uint64
	// WorkerJitters counts inflated worker assignments.
	WorkerJitters uint64
	// StormArrivals counts requests injected by storms.
	StormArrivals uint64
}

// Injector makes seeded fault decisions for a simulated System. Methods
// are nil-safe: a nil *Injector injects nothing, so callers can hook it
// unconditionally.
type Injector struct {
	cfg         Config
	deliveryRNG *sim.RNG
	workerRNG   *sim.RNG
	burst       *GilbertElliott

	// Counters is the running tally of injected faults.
	Counters Counters
}

// NewInjector validates cfg and builds an injector.
func NewInjector(cfg Config) *Injector {
	for _, p := range []float64{cfg.DropProb, cfg.DelayProb, cfg.WorkerJitterProb} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("chaos: probability %v outside [0,1]", p))
		}
	}
	if cfg.DelayProb > 0 && cfg.DelayMean <= 0 {
		panic("chaos: DelayProb without positive DelayMean")
	}
	if cfg.WorkerJitterProb > 0 && cfg.WorkerJitterMean <= 0 {
		panic("chaos: WorkerJitterProb without positive WorkerJitterMean")
	}
	for _, w := range cfg.Stalls {
		if w.To < w.From {
			panic(fmt.Sprintf("chaos: stall window [%v,%v) ends before it starts", w.From, w.To))
		}
	}
	root := sim.NewRNG(cfg.Seed ^ 0x63686173) // "chas"
	in := &Injector{
		cfg:         cfg,
		deliveryRNG: root.Stream(1),
		workerRNG:   root.Stream(2),
	}
	if cfg.Burst != nil {
		bcfg := *cfg.Burst
		if bcfg.Seed == 0 {
			bcfg.Seed = cfg.Seed ^ 0x6263 // "bc"
		}
		in.burst = NewGilbertElliott(bcfg)
	}
	return in
}

// Burst exposes the injector's Gilbert–Elliott chain (nil when
// Config.Burst is unset), for tests asserting sojourn statistics.
func (in *Injector) Burst() *GilbertElliott { return in.burst }

// Config returns the scenario this injector was built from.
func (in *Injector) Config() Config { return in.cfg }

// OnDelivery decides the fate of one preemption delivery at virtual
// time now. For Delay it also returns the deferral.
func (in *Injector) OnDelivery(now sim.Time) (Action, sim.Time) {
	if in == nil {
		return Deliver, 0
	}
	for _, w := range in.cfg.Stalls {
		if w.Contains(now) {
			in.Counters.Stalled++
			return Delay, w.To - now
		}
	}
	if in.burst != nil {
		if _, drop := in.burst.Step(); drop {
			in.Counters.BurstDropped++
			return Drop, 0
		}
	}
	if in.cfg.DropProb > 0 && in.deliveryRNG.Bernoulli(in.cfg.DropProb) {
		in.Counters.Dropped++
		return Drop, 0
	}
	if in.cfg.DelayProb > 0 && in.deliveryRNG.Bernoulli(in.cfg.DelayProb) {
		in.Counters.Delayed++
		return Delay, 1 + sim.Time(in.deliveryRNG.Exp(float64(in.cfg.DelayMean)))
	}
	in.Counters.Delivered++
	return Deliver, 0
}

// WorkerOverhead returns the extra overhead to charge one worker
// assignment (0 when the jitter fault is off or the draw misses).
func (in *Injector) WorkerOverhead() sim.Time {
	if in == nil || in.cfg.WorkerJitterProb == 0 {
		return 0
	}
	if !in.workerRNG.Bernoulli(in.cfg.WorkerJitterProb) {
		return 0
	}
	in.Counters.WorkerJitters++
	return 1 + sim.Time(in.workerRNG.Exp(float64(in.cfg.WorkerJitterMean)))
}

// ScheduleStorms installs the configured arrival storms on eng. submit
// is called Count times per storm at its At time with the storm index
// and the arrival's index within the storm; it typically builds a
// request and Submits it.
func (in *Injector) ScheduleStorms(eng *sim.Engine, submit func(storm, k int)) {
	if in == nil {
		return
	}
	for si := range in.cfg.Storms {
		si := si
		st := in.cfg.Storms[si]
		eng.At(st.At, func() {
			for k := 0; k < st.Count; k++ {
				in.Counters.StormArrivals++
				submit(si, k)
			}
		})
	}
}
