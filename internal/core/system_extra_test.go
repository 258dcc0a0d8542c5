package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestResetStatsStartsFreshEpoch(t *testing.T) {
	s := New(Config{Workers: 2, Quantum: 0, Mech: MechNone, Seed: 41})
	for i := 0; i < 10; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, sim.Microsecond))
	}
	s.Eng.RunAll()
	if s.Metrics.Completed != 10 {
		t.Fatalf("completed %d", s.Metrics.Completed)
	}
	s.ResetStats()
	if s.Metrics.Completed != 0 || s.Metrics.Latency.Count() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if s.InFlight() != 0 {
		t.Fatal("InFlight corrupted by reset")
	}
	// New work after reset is counted from the new epoch.
	s.Eng.Schedule(sim.Millisecond, func() {
		s.Submit(sched.NewRequest(100, sched.ClassLC, s.Eng.Now(), sim.Microsecond))
	})
	s.Eng.RunAll()
	if s.Metrics.Completed != 1 {
		t.Fatalf("post-reset completed %d", s.Metrics.Completed)
	}
	if tp := s.Throughput(); tp <= 0 {
		t.Fatalf("post-reset throughput %f", tp)
	}
}

func TestInFlightSurvivesReset(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 0, Mech: MechNone, Seed: 42})
	// A long request in flight across the reset boundary.
	s.Submit(sched.NewRequest(1, sched.ClassLC, 0, sim.Millisecond))
	s.Eng.Schedule(100*sim.Microsecond, func() {
		if s.InFlight() != 1 {
			t.Errorf("in flight = %d before reset", s.InFlight())
		}
		s.ResetStats()
		if s.InFlight() != 1 {
			t.Errorf("in flight = %d after reset", s.InFlight())
		}
	})
	s.Eng.RunAll()
	if s.InFlight() != 0 {
		t.Fatalf("in flight = %d at drain", s.InFlight())
	}
	// Its completion lands in the post-reset epoch.
	if s.Metrics.Completed != 1 {
		t.Fatalf("completed = %d", s.Metrics.Completed)
	}
}

func TestSpuriousInterruptsCounted(t *testing.T) {
	// Quantum equal to service: the deadline and completion race; some
	// deliveries land after completion and must be absorbed as spurious
	// without corrupting scheduling state.
	s := New(Config{Workers: 1, Quantum: 10 * sim.Microsecond, Mech: MechUINTR, Seed: 43})
	for i := 0; i < 200; i++ {
		i := i
		s.Eng.Schedule(sim.Time(i)*30*sim.Microsecond, func() {
			s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, s.Eng.Now(), 10*sim.Microsecond))
		})
	}
	s.Eng.RunAll()
	if s.Metrics.Completed != 200 {
		t.Fatalf("completed %d of 200", s.Metrics.Completed)
	}
	// The exact spurious count is timing-dependent; what matters is that
	// the run drained and every request completed exactly once.
	if s.InFlight() != 0 {
		t.Fatalf("in flight %d", s.InFlight())
	}
}

func TestCtxPoolExhaustionPanicsWithDiagnostic(t *testing.T) {
	// Contexts are attached at first assignment and held while
	// preempted, so exceeding the pool requires more preempted+running
	// requests than its capacity.
	s := New(Config{Workers: 1, Quantum: 5 * sim.Microsecond, Mech: MechUINTR, Seed: 44, CtxPoolSize: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected pool-exhaustion panic")
		}
	}()
	for i := 0; i < 16; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, sim.Millisecond))
	}
	s.Eng.RunAll()
}

func TestTwoLevelJSQBalancesLoad(t *testing.T) {
	s := New(Config{Workers: 4, Quantum: 0, Mech: MechNone, TwoLevel: true, Seed: 45})
	runWorkload(s, sim.Fixed{V: 10 * sim.Microsecond}, 300000, 100*sim.Millisecond, 46)
	// All workers should carry comparable load under JSQ.
	var min, max sim.Time = sim.MaxTime, 0
	for i := 0; i < 4; i++ {
		b := s.M.Core(i).BusyTime()
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if float64(min) < float64(max)*0.8 {
		t.Fatalf("JSQ imbalance: min %v vs max %v", min, max)
	}
}

func TestQueueLenAccounting(t *testing.T) {
	for _, twoLevel := range []bool{false, true} {
		s := New(Config{Workers: 1, Quantum: 0, Mech: MechNone, TwoLevel: twoLevel, Seed: 47})
		for i := 0; i < 10; i++ {
			s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, 100*sim.Microsecond))
		}
		// Before any event runs, everything is backlogged except the
		// request already in the dispatcher's hands.
		if got := s.QueueLen(); got < 9 || got > 10 {
			t.Fatalf("twoLevel=%v QueueLen = %d, want 9-10", twoLevel, got)
		}
		s.Eng.RunAll()
		if got := s.QueueLen(); got != 0 {
			t.Fatalf("twoLevel=%v QueueLen = %d after drain", twoLevel, got)
		}
	}
}

// TestQueueLenCountsRequestsOnly: under MechPostedIPI the dispatcher's
// backlog mixes arrivals with its own costed work (decisions, IPI
// sends); only requests count toward QueueLen.
func TestQueueLenCountsRequestsOnly(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 50 * sim.Microsecond, Mech: MechPostedIPI, Seed: 49})
	for i := uint64(1); i <= 3; i++ {
		s.Submit(sched.NewRequest(i, sched.ClassLC, 0, 10*sim.Microsecond))
	}
	// After the first arrival's DispatchCost: request 1 waits in the
	// policy queue, request 2 is being dispatched, and the backlog
	// holds request 3 and the worker's decision.
	s.Eng.Run(s.M.Costs.DispatchCost + sim.Nanosecond)
	if n := len(s.dispatchQ) - s.dispatchHead; n != 2 {
		t.Fatalf("dispatcher backlog = %d items, want 2 (request 3 + a decision)", n)
	}
	if got := s.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2 (requests 1 and 3; the queued decision is not a request)", got)
	}
	s.Eng.RunAll()
	if got := s.QueueLen(); got != 0 || s.Metrics.Completed != 3 {
		t.Fatalf("after drain: QueueLen = %d, completed = %d", got, s.Metrics.Completed)
	}
}

func TestPreemptedLenTracksLongQueue(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 10 * sim.Microsecond, Mech: MechUINTR, Seed: 48})
	// Two long requests: while one runs, the other parks preempted.
	s.Submit(sched.NewRequest(1, sched.ClassLC, 0, 200*sim.Microsecond))
	s.Submit(sched.NewRequest(2, sched.ClassLC, 0, 200*sim.Microsecond))
	seen := false
	var probe func()
	probe = func() {
		if s.PreemptedLen() > 0 {
			seen = true
			return
		}
		if s.Eng.Now() < sim.Millisecond {
			s.Eng.ScheduleDaemon(5*sim.Microsecond, probe)
		}
	}
	s.Eng.ScheduleDaemon(15*sim.Microsecond, probe)
	s.Eng.RunAll()
	if !seen {
		t.Fatal("PreemptedLen never observed a parked request")
	}
	if s.PreemptedLen() != 0 {
		t.Fatal("preempted queue not drained")
	}
}

func TestUtimerAccessor(t *testing.T) {
	withTimer := New(Config{Workers: 1, Quantum: sim.Microsecond, Mech: MechUINTR, Seed: 49})
	if withTimer.Utimer() == nil {
		t.Fatal("UINTR system should expose its timer service")
	}
	without := New(Config{Workers: 1, Mech: MechNone, Seed: 50})
	if without.Utimer() != nil {
		t.Fatal("MechNone system should have no timer service")
	}
}

func TestWorkloadCDispatchesBothPhases(t *testing.T) {
	// End-to-end phase switch through a real System (not just the
	// generator): completions must keep flowing after the shift.
	s := New(Config{Workers: 2, Quantum: 15 * sim.Microsecond, Mech: MechUINTR, Seed: 51})
	half := 50 * sim.Millisecond
	gen := workload.NewOpenLoop(s.Eng, sim.NewRNG(52), sched.ClassLC,
		[]workload.Phase{
			{Duration: half, Service: workload.A1(),
				Rate: workload.RateForLoad(0.5, 2, workload.A1().Mean())},
			{Service: workload.B(),
				Rate: workload.RateForLoad(0.5, 2, workload.B().Mean())},
		}, s.Submit)
	var firstHalf uint64
	s.Eng.ScheduleDaemon(half, func() { firstHalf = s.Metrics.Completed })
	gen.Start()
	s.Eng.Run(2 * half)
	gen.Stop()
	s.Eng.RunAll()
	if firstHalf == 0 || s.Metrics.Completed <= firstHalf {
		t.Fatalf("phase switch stalled: %d then %d", firstHalf, s.Metrics.Completed)
	}
}

// BenchmarkSystemThroughput measures simulator throughput end-to-end:
// wall time per completed request for a loaded LibPreemptible system
// (dispatch + schedule + preempt + complete events).
func BenchmarkSystemThroughput(b *testing.B) {
	s := New(Config{Workers: 4, Quantum: 10 * sim.Microsecond, Mech: MechUINTR, Seed: 99})
	rng := sim.NewRNG(100)
	d := workload.A2()
	gap := sim.Time(float64(sim.Second) / workload.RateForLoad(0.8, 4, d.Mean()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eng.Schedule(gap, func() {})
		s.Eng.RunAll()
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, s.Eng.Now(), d.Sample(rng)))
	}
	s.Eng.RunAll()
}
