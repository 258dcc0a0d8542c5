package brownout

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// step drives one Observe with a bare occupancy signal.
func step(c *Controller, at time.Time, occ float64) State {
	return c.Observe(at, Signal{Occupancy: occ})
}

func TestDefaultsAndValidation(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if !(cfg.ExitBrownout < cfg.EnterBrownout && cfg.ExitShed < cfg.EnterShed) {
		t.Fatalf("defaulted config is not a hysteresis band: %+v", cfg)
	}
	if c.State() != Normal {
		t.Fatalf("fresh controller in %v, want normal", c.State())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inverted band accepted")
		}
	}()
	New(Config{EnterBrownout: 0.5, ExitBrownout: 0.9})
}

func TestHysteresisBandHoldsState(t *testing.T) {
	// A raw signal oscillating strictly inside the hysteresis band must
	// never cause a transition, no matter how long it runs.
	c := New(Config{EnterBrownout: 0.9, ExitBrownout: 0.5, MinDwell: time.Millisecond,
		AlphaRise: 1, AlphaFall: 1}) // no smoothing: the band alone must hold
	t0 := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		occ := 0.55
		if i%2 == 0 {
			occ = 0.85
		}
		if got := step(c, t0.Add(time.Duration(i)*10*time.Millisecond), occ); got != Normal {
			t.Fatalf("step %d: state %v inside the band", i, got)
		}
	}
	if c.Transitions() != 0 {
		t.Fatalf("%d transitions inside the hysteresis band", c.Transitions())
	}
}

func TestDwellBlocksEarlyTransition(t *testing.T) {
	c := New(Config{MinDwell: 100 * time.Millisecond, AlphaRise: 1, AlphaFall: 1})
	t0 := time.Unix(0, 0)
	// Saturated from the first sample: the transition must still wait
	// out the dwell in Normal.
	if got := step(c, t0, 5); got != Normal {
		t.Fatalf("transition before dwell: %v", got)
	}
	if got := step(c, t0.Add(50*time.Millisecond), 5); got != Normal {
		t.Fatalf("transition at half dwell: %v", got)
	}
	if got := step(c, t0.Add(100*time.Millisecond), 5); got != Brownout {
		t.Fatalf("no transition after dwell: %v", got)
	}
	// One step per observation: even saturated far past EnterShed, the
	// machine passes through Brownout and dwells there first.
	if got := step(c, t0.Add(150*time.Millisecond), 5); got != Brownout {
		t.Fatalf("skipped brownout dwell: %v", got)
	}
	if got := step(c, t0.Add(200*time.Millisecond), 5); got != Shed {
		t.Fatalf("no escalation to shed: %v", got)
	}
}

// TestMonotoneRampNeverFlaps is the seeded property test: for any
// monotone load ramp up then down, the state sequence is monotone in
// each direction, there is exactly one transition per threshold
// crossing, and every state is held at least MinDwell.
func TestMonotoneRampNeverFlaps(t *testing.T) {
	rng := sim.NewRNG(0xb10)
	for trial := 0; trial < 50; trial++ {
		cfg := Config{
			EnterBrownout: 0.8 + 0.2*rng.Float64(),  // [0.8, 1.0)
			ExitBrownout:  0.3 + 0.3*rng.Float64(),  // [0.3, 0.6)
			EnterShed:     2.0 + 2.0*rng.Float64(),  // [2.0, 4.0)
			ExitShed:      1.1 + 0.5*rng.Float64(),  // [1.1, 1.6)
			AlphaRise:     0.2 + 0.8*rng.Float64(),  // (0.2, 1.0)
			AlphaFall:     0.05 + 0.5*rng.Float64(), // (0.05, 0.55)
			MinDwell:      time.Duration(1+rng.Intn(80)) * time.Millisecond,
		}
		peak := 0.5 + 5*rng.Float64() // may or may not cross either threshold
		rampSteps := 50 + rng.Intn(200)
		c := New(cfg)

		const dt = 2 * time.Millisecond
		holdSteps := 400 + int(cfg.MinDwell/dt) // long enough to settle EWMA + dwell
		t0 := time.Unix(0, 0)
		now := t0
		var states []State
		var times []time.Time
		observe := func(raw float64) {
			st := step(c, now, raw)
			states = append(states, st)
			times = append(times, now)
			now = now.Add(dt)
		}
		// Monotone up, hold at peak, monotone down, hold at zero.
		for i := 0; i <= rampSteps; i++ {
			observe(peak * float64(i) / float64(rampSteps))
		}
		for i := 0; i < holdSteps; i++ {
			observe(peak)
		}
		upEnd := len(states)
		for i := rampSteps; i >= 0; i-- {
			observe(peak * float64(i) / float64(rampSteps))
		}
		for i := 0; i < holdSteps; i++ {
			observe(0)
		}

		// Monotone state sequence in each phase: never a downward move
		// while the ramp rises, never upward while it falls.
		for i := 1; i < upEnd; i++ {
			if states[i] < states[i-1] {
				t.Fatalf("trial %d: state fell %v→%v during rising ramp (cfg %+v)",
					trial, states[i-1], states[i], cfg)
			}
		}
		for i := upEnd + 1; i < len(states); i++ {
			if states[i] > states[i-1] {
				t.Fatalf("trial %d: state rose %v→%v during falling ramp (cfg %+v)",
					trial, states[i-1], states[i], cfg)
			}
		}

		// Exactly one transition per threshold crossing: the held peak
		// decides how deep the machine goes, and the return to zero
		// retraces it. (The EWMA converges to the held raw value, so
		// crossing is decided by peak against the enter thresholds.)
		wantUp := 0
		if peak >= cfg.EnterBrownout {
			wantUp++
		}
		if peak >= cfg.EnterShed {
			wantUp++
		}
		hist := c.History()
		if len(hist) != 2*wantUp {
			t.Fatalf("trial %d: %d transitions, want %d (peak %.2f, cfg %+v, hist %+v)",
				trial, len(hist), 2*wantUp, peak, cfg, hist)
		}
		if states[len(states)-1] != Normal {
			t.Fatalf("trial %d: final state %v, want normal", trial, states[len(states)-1])
		}

		// Dwell respected between every pair of consecutive transitions
		// and before the first one.
		prev := t0
		for i, tr := range hist {
			if d := tr.At.Sub(prev); d < cfg.MinDwell {
				t.Fatalf("trial %d: transition %d after %v < dwell %v (hist %+v)",
					trial, i, d, cfg.MinDwell, hist)
			}
			prev = tr.At
		}
		// And the transitions are single-step moves retracing each other.
		for i, tr := range hist {
			if diff := int32(tr.To) - int32(tr.From); diff != 1 && diff != -1 {
				t.Fatalf("trial %d: transition %d skips states: %+v", trial, i, tr)
			}
		}
	}
}
