// Package brownout is the class-aware graceful-degradation control
// plane: a hysteresis state machine that watches smoothed load signals
// and tells admission control how hard to push back. It encodes the
// paper's LC/BE contract (§VI colocation: protect latency-critical
// tails, let best-effort soak spare cycles) as three modes:
//
//   - NORMAL: everyone is admitted subject to the ordinary caps.
//   - BROWNOUT: best-effort (BE) work is fast-rejected and evicted;
//     latency-critical (LC) work keeps flowing.
//   - SHED: sustained overload that BE rejection alone cannot absorb —
//     everything is fast-rejected until pressure drains.
//
// The controller is deliberately boring: an asymmetric EWMA (fast
// attack, slow decay) over a scalar pressure signal, separate enter and
// exit thresholds per boundary (hysteresis), and a minimum dwell time
// in every state. All three mechanisms exist to prevent flapping — an
// admission gate that oscillates per-request is worse than no gate,
// because clients see an incoherent mix of accepts and rejects and
// their retries re-synchronize into new bursts.
//
// Time is always passed in explicitly, so tests drive the machine in
// virtual time and the live server drives it from a sampling ticker.
package brownout

import (
	"fmt"
	"sync"
	"time"
)

// State is the controller's degradation mode. Ordering is meaningful:
// higher states are more degraded, and transitions move one step at a
// time (NORMAL ↔ BROWNOUT ↔ SHED, never NORMAL ↔ SHED directly).
type State int32

const (
	// Normal admits everything subject to the ordinary caps.
	Normal State = iota
	// Brownout fast-rejects and evicts BE work; LC keeps flowing.
	Brownout
	// Shed fast-rejects everything until pressure drains.
	Shed

	// NumStates is the number of states (for per-state counter arrays).
	NumStates = 3
)

func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Brownout:
		return "brownout"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Config parameterizes a Controller. The zero value gets defaults from
// New; invalid combinations (exit ≥ enter, thresholds out of order)
// panic there, because a mis-ordered hysteresis band silently degrades
// to a flapping bang-bang controller.
type Config struct {
	// EnterBrownout/ExitBrownout bound the NORMAL↔BROWNOUT hysteresis
	// band on the smoothed pressure signal (defaults 0.9 and 0.5).
	// Pressure is dimensionless: 1.0 means "offered load equals the
	// configured capacity".
	EnterBrownout, ExitBrownout float64
	// EnterShed/ExitShed bound the BROWNOUT↔SHED band (defaults 3.0 and
	// 1.5): overload so deep that rejecting BE alone cannot drain it.
	EnterShed, ExitShed float64
	// AlphaRise/AlphaFall are the EWMA smoothing factors applied when
	// the raw signal is above/below the current estimate (defaults 0.5
	// and 0.1). Fast attack enters protection promptly; slow decay keeps
	// it engaged across the gaps inside a correlated burst.
	AlphaRise, AlphaFall float64
	// MinDwell is the minimum time the controller holds a state before
	// any transition out of it (default 50ms). Combined with hysteresis
	// it bounds the worst-case mode-switch rate.
	MinDwell time.Duration
}

func (c Config) withDefaults() Config {
	if c.EnterBrownout == 0 {
		c.EnterBrownout = 0.9
	}
	if c.ExitBrownout == 0 {
		c.ExitBrownout = 0.5
	}
	if c.EnterShed == 0 {
		c.EnterShed = 3.0
	}
	if c.ExitShed == 0 {
		c.ExitShed = 1.5
	}
	if c.AlphaRise == 0 {
		c.AlphaRise = 0.5
	}
	if c.AlphaFall == 0 {
		c.AlphaFall = 0.1
	}
	if c.MinDwell == 0 {
		c.MinDwell = 50 * time.Millisecond
	}
	return c
}

func (c Config) validate() {
	if !(c.ExitBrownout < c.EnterBrownout) {
		panic(fmt.Sprintf("brownout: ExitBrownout %v must be < EnterBrownout %v", c.ExitBrownout, c.EnterBrownout))
	}
	if !(c.ExitShed < c.EnterShed) {
		panic(fmt.Sprintf("brownout: ExitShed %v must be < EnterShed %v", c.ExitShed, c.EnterShed))
	}
	if !(c.EnterBrownout <= c.EnterShed) {
		panic(fmt.Sprintf("brownout: EnterBrownout %v must be ≤ EnterShed %v", c.EnterBrownout, c.EnterShed))
	}
	for _, a := range []float64{c.AlphaRise, c.AlphaFall} {
		if a <= 0 || a > 1 {
			panic(fmt.Sprintf("brownout: alpha %v outside (0,1]", a))
		}
	}
	if c.MinDwell < 0 {
		panic("brownout: negative MinDwell")
	}
}

// Signal is one raw observation of system pressure. The scalar the
// controller smooths is the max of the components: any one saturated
// resource is enough to warrant protection.
type Signal struct {
	// Occupancy is offered load against the admission cap:
	// (inflight + recent fast-rejects) / capacity. It exceeds 1.0 under
	// overload — rejected work is still pressure, which is what keeps
	// the controller engaged while the BE gate is actively rejecting.
	Occupancy float64
	// DelayRatio is queue delay against its target: oldest queued
	// arrival's wait / target delay.
	DelayRatio float64
}

func (s Signal) raw() float64 { return max(s.Occupancy, s.DelayRatio) }

// Transition records one state change.
type Transition struct {
	From, To State
	At       time.Time
	// Load is the smoothed pressure at the moment of the transition.
	Load float64
}

// Controller is the hysteresis state machine. Safe for concurrent use;
// Observe is the only mutating call.
type Controller struct {
	mu     sync.Mutex
	cfg    Config
	state  State
	load   float64
	primed bool
	since  time.Time // when the current state was entered
	hist   []Transition
}

// New builds a controller in Normal with cfg (zero fields defaulted).
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	cfg.validate()
	return &Controller{cfg: cfg}
}

// Config reports the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// Observe folds one signal sample into the smoothed load at time now
// and returns the (possibly updated) state. Transitions move at most
// one step per call and never before the current state has been held
// MinDwell; hysteresis means a transition only reverses after the
// signal crosses the opposite edge of the band.
func (c *Controller) Observe(now time.Time, sig Signal) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw := sig.raw()
	if !c.primed {
		c.primed = true
		c.load = raw
		c.since = now
	} else {
		alpha := c.cfg.AlphaFall
		if raw > c.load {
			alpha = c.cfg.AlphaRise
		}
		c.load += alpha * (raw - c.load)
	}
	if now.Sub(c.since) < c.cfg.MinDwell {
		return c.state
	}
	next := c.state
	switch c.state {
	case Normal:
		if c.load >= c.cfg.EnterBrownout {
			next = Brownout
		}
	case Brownout:
		if c.load >= c.cfg.EnterShed {
			next = Shed
		} else if c.load <= c.cfg.ExitBrownout {
			next = Normal
		}
	case Shed:
		if c.load <= c.cfg.ExitShed {
			next = Brownout
		}
	}
	if next != c.state {
		c.hist = append(c.hist, Transition{From: c.state, To: next, At: now, Load: c.load})
		c.state = next
		c.since = now
	}
	return c.state
}

// State snapshots the current state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Load snapshots the smoothed pressure estimate.
func (c *Controller) Load() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.load
}

// History returns a copy of every transition so far, in order. Tests
// use it to assert dwell times and the absence of flapping.
func (c *Controller) History() []Transition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Transition(nil), c.hist...)
}

// Transitions reports how many state changes have occurred.
func (c *Controller) Transitions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hist)
}
