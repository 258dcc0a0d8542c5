package core

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runWorkload drives a system with an open-loop generator for duration.
func runWorkload(s *System, service sim.Dist, rate float64, duration sim.Time, seed uint64) {
	gen := workload.NewOpenLoop(s.Eng, sim.NewRNG(seed), sched.ClassLC,
		[]workload.Phase{{Service: service, Rate: rate}}, s.Submit)
	gen.Start()
	s.Eng.Run(duration)
	gen.Stop()
	// Drain in-flight work.
	s.Eng.RunAll()
}

func TestSingleRequestCompletes(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 0, Mech: MechNone, Seed: 1})
	var done *sched.Request
	s.cfg.OnComplete = func(r *sched.Request) { done = r }
	r := sched.NewRequest(1, sched.ClassLC, 0, 10*sim.Microsecond)
	s.Submit(r)
	s.Eng.RunAll()
	if done != r || !r.Done() {
		t.Fatal("request did not complete")
	}
	// Latency = dispatch + ctx alloc + service.
	want := s.M.Costs.DispatchCost + s.M.Costs.CtxAlloc + 10*sim.Microsecond
	if r.Latency() != want {
		t.Fatalf("latency = %v, want %v", r.Latency(), want)
	}
	if s.Metrics.Completed != 1 || s.Metrics.Submitted != 1 {
		t.Fatalf("metrics: %+v", s.Metrics)
	}
}

func TestPreemptionSplitsLongRequest(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 10 * sim.Microsecond, Mech: MechUINTR, Seed: 2})
	long := sched.NewRequest(1, sched.ClassLC, 0, 100*sim.Microsecond)
	s.Submit(long)
	s.Eng.RunAll()
	if !long.Done() {
		t.Fatal("long request did not complete")
	}
	if long.Preemptions < 5 {
		t.Fatalf("preemptions = %d, want several at 10µs quantum over 100µs", long.Preemptions)
	}
	if s.Metrics.Preemptions != uint64(long.Preemptions) {
		t.Fatal("system preemption counter mismatch")
	}
}

func TestNoPreemptionWithoutQuantum(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 0, Mech: MechUINTR, Seed: 3})
	long := sched.NewRequest(1, sched.ClassLC, 0, 500*sim.Microsecond)
	s.Submit(long)
	s.Eng.RunAll()
	if long.Preemptions != 0 {
		t.Fatalf("preempted %d times with quantum 0", long.Preemptions)
	}
}

func TestPreemptionAvoidsHoLBlocking(t *testing.T) {
	// One long request then a burst of short ones on a single worker:
	// with preemption the shorts must not wait for the long to finish.
	run := func(quantum sim.Time) sim.Time {
		s := New(Config{Workers: 1, Quantum: quantum, Mech: MechUINTR, Seed: 4})
		long := sched.NewRequest(1, sched.ClassLC, 0, 500*sim.Microsecond)
		s.Submit(long)
		var shorts []*sched.Request
		s.Eng.Schedule(5*sim.Microsecond, func() {
			for i := 0; i < 5; i++ {
				r := sched.NewRequest(uint64(10+i), sched.ClassLC, s.Eng.Now(), sim.Microsecond)
				shorts = append(shorts, r)
				s.Submit(r)
			}
		})
		s.Eng.RunAll()
		var worst sim.Time
		for _, r := range shorts {
			if l := r.Latency(); l > worst {
				worst = l
			}
		}
		return worst
	}
	preemptive := run(10 * sim.Microsecond)
	runToCompletion := run(0)
	if preemptive*5 > runToCompletion {
		t.Fatalf("preemption did not relieve HoL blocking: %v vs %v", preemptive, runToCompletion)
	}
	if runToCompletion < 400*sim.Microsecond {
		t.Fatalf("run-to-completion shorts should wait for the long request: %v", runToCompletion)
	}
}

func TestWorkConservation(t *testing.T) {
	// All submitted requests complete and total busy time >= total
	// service demand (busy includes overheads).
	s := New(Config{Workers: 4, Quantum: 20 * sim.Microsecond, Mech: MechUINTR, Seed: 5})
	var demand sim.Time
	rng := sim.NewRNG(55)
	d := workload.A2()
	for i := 0; i < 500; i++ {
		svc := d.Sample(rng)
		demand += svc
		i := i
		s.Eng.Schedule(sim.Time(i)*2*sim.Microsecond, func() {
			s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, s.Eng.Now(), svc))
		})
	}
	s.Eng.RunAll()
	if s.Metrics.Completed != 500 {
		t.Fatalf("completed %d of 500", s.Metrics.Completed)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight = %d at drain", s.InFlight())
	}
	var busy sim.Time
	for i := 0; i < 4; i++ {
		busy += s.M.Core(i).BusyTime()
	}
	if busy < demand {
		t.Fatalf("worker busy %v < demand %v (lost work)", busy, demand)
	}
	// Overhead should be bounded: busy <= demand * 1.2 at 20µs quanta.
	if float64(busy) > float64(demand)*1.2 {
		t.Fatalf("overhead too high: busy %v vs demand %v", busy, demand)
	}
}

func TestAllWorkersUsed(t *testing.T) {
	s := New(Config{Workers: 4, Quantum: 0, Mech: MechNone, Seed: 6})
	runWorkload(s, sim.Fixed{V: 10 * sim.Microsecond}, 300000, 50*sim.Millisecond, 66)
	for i := 0; i < 4; i++ {
		if s.M.Core(i).BusyTime() == 0 {
			t.Fatalf("worker %d never ran", i)
		}
	}
	if s.Metrics.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestMM4QueueTheorySanity(t *testing.T) {
	// M/M/4 at ρ=0.5 without preemption: mean sojourn ≈ E[S]·(1 + P_wait/(k(1-ρ)))
	// With k=4, ρ=0.5: Erlang-C P_wait ≈ 0.1739, mean ≈ 5µs · 1.087 ≈ 5.43µs.
	s := New(Config{Workers: 4, Quantum: 0, Mech: MechNone, Seed: 7})
	rate := workload.RateForLoad(0.5, 4, 5*sim.Microsecond)
	runWorkload(s, workload.B(), rate, 2*sim.Second, 77)
	mean := s.Metrics.Latency.Mean() // ns
	want := 5430.0
	if mean < want*0.9 || mean > want*1.15 {
		t.Fatalf("M/M/4 mean sojourn = %.0fns, want ~%.0f", mean, want)
	}
}

func TestCentralizedVsTwoLevelBothComplete(t *testing.T) {
	for _, twoLevel := range []bool{false, true} {
		s := New(Config{Workers: 4, Quantum: 15 * sim.Microsecond, Mech: MechUINTR,
			TwoLevel: twoLevel, Seed: 8})
		rate := workload.RateForLoad(0.6, 4, workload.A2().Mean())
		runWorkload(s, workload.A2(), rate, 200*sim.Millisecond, 88)
		if s.InFlight() != 0 {
			t.Fatalf("twoLevel=%v: %d requests stuck", twoLevel, s.InFlight())
		}
		if s.Metrics.Completed < 1000 {
			t.Fatalf("twoLevel=%v: only %d completed", twoLevel, s.Metrics.Completed)
		}
	}
}

func TestTwoLevelStealsWork(t *testing.T) {
	s := New(Config{Workers: 4, Quantum: 0, Mech: MechNone, TwoLevel: true, Seed: 9})
	// Burst arrival: all requests land before any completes, exercising
	// JSQ and stealing.
	for i := 0; i < 64; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, sim.Time(1+i%7)*sim.Microsecond))
	}
	s.Eng.RunAll()
	if s.Metrics.Completed != 64 {
		t.Fatalf("completed %d", s.Metrics.Completed)
	}
}

func TestUINTRFasterThanSignalMech(t *testing.T) {
	// The no-UINTR ablation must show clearly worse tail latency on a
	// heavy-tailed workload at moderate load (Fig. 8 orange line).
	tail := func(mech MechKind) int64 {
		s := New(Config{Workers: 4, Quantum: 10 * sim.Microsecond, Mech: mech, Seed: 10})
		rate := workload.RateForLoad(0.6, 4, workload.A1().Mean())
		runWorkload(s, workload.A1(), rate, 300*sim.Millisecond, 99)
		return s.Metrics.Latency.P99()
	}
	u := tail(MechUINTR)
	k := tail(MechKernelSignal)
	if k < u*2 {
		t.Fatalf("kernel-signal p99 %dns not clearly worse than UINTR %dns", k, u)
	}
}

func TestQuantumOverridePerRequest(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 100 * sim.Microsecond, Mech: MechUINTR, Seed: 11})
	r := sched.NewRequest(1, sched.ClassLC, 0, 90*sim.Microsecond)
	r.QuantumOverride = 10 * sim.Microsecond
	s.Submit(r)
	s.Eng.RunAll()
	if r.Preemptions < 4 {
		t.Fatalf("per-request quantum ignored: %d preemptions", r.Preemptions)
	}
}

func TestQuantumForHook(t *testing.T) {
	calls := 0
	s := New(Config{
		Workers: 1, Quantum: 100 * sim.Microsecond, Mech: MechUINTR, Seed: 12,
		QuantumFor: func(r *sched.Request, q sim.Time) sim.Time {
			calls++
			return 5 * sim.Microsecond
		},
	})
	r := sched.NewRequest(1, sched.ClassLC, 0, 40*sim.Microsecond)
	s.Submit(r)
	s.Eng.RunAll()
	if calls == 0 {
		t.Fatal("QuantumFor never called")
	}
	if r.Preemptions < 3 {
		t.Fatalf("hook quantum ignored: %d preemptions", r.Preemptions)
	}
}

func TestSetQuantumTakesEffect(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 5 * sim.Microsecond, Mech: MechUINTR, Seed: 13})
	if s.Quantum() != 5*sim.Microsecond {
		t.Fatal("Quantum accessor wrong")
	}
	s.SetQuantum(50 * sim.Microsecond)
	r := sched.NewRequest(1, sched.ClassLC, 0, 45*sim.Microsecond)
	s.Submit(r)
	s.Eng.RunAll()
	if r.Preemptions > 1 {
		t.Fatalf("quantum update ignored: %d preemptions", r.Preemptions)
	}
}

func TestSetQuantumNegativePanics(t *testing.T) {
	s := New(Config{Workers: 1, Seed: 14})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SetQuantum(-1)
}

func TestDrainWindow(t *testing.T) {
	s := New(Config{Workers: 2, Quantum: 0, Mech: MechNone, Seed: 15})
	for i := 0; i < 10; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, sim.Microsecond))
	}
	s.Eng.RunAll()
	w := s.DrainWindow()
	if w.Arrivals != 10 || len(w.Latencies) != 10 {
		t.Fatalf("window: %+v", w)
	}
	w2 := s.DrainWindow()
	if w2.Arrivals != 0 || len(w2.Latencies) != 0 {
		t.Fatal("window not reset after drain")
	}
}

func TestThroughputAndUtilization(t *testing.T) {
	s := New(Config{Workers: 2, Quantum: 0, Mech: MechNone, Seed: 16})
	runWorkload(s, sim.Fixed{V: 5 * sim.Microsecond}, 200000, 100*sim.Millisecond, 17)
	// 200k submitted/s on 2 workers of 200k/s capacity each → ~200k/s.
	tp := s.Throughput()
	if tp < 180000 || tp > 220000 {
		t.Fatalf("throughput = %.0f", tp)
	}
	u := s.WorkerUtilization()
	if u < 0.4 || u > 0.62 {
		t.Fatalf("utilization = %f, want ~0.5", u)
	}
}

func TestClassSeparationInMetrics(t *testing.T) {
	s := New(Config{Workers: 1, Quantum: 0, Mech: MechNone, Seed: 18})
	s.Submit(sched.NewRequest(1, sched.ClassLC, 0, sim.Microsecond))
	s.Submit(sched.NewRequest(2, sched.ClassBE, 0, 100*sim.Microsecond))
	s.Eng.RunAll()
	if s.Metrics.LatencyLC.Count() != 1 || s.Metrics.LatencyBE.Count() != 1 {
		t.Fatal("class histograms wrong")
	}
	if s.Metrics.Latency.Count() != 2 {
		t.Fatal("overall histogram wrong")
	}
}

func TestPolicyPluggability(t *testing.T) {
	// SRPT should beat FCFS-without-preemption on mean latency for a
	// bimodal workload on one worker.
	mean := func(p sched.Policy) float64 {
		s := New(Config{Workers: 1, Quantum: 0, Mech: MechNone, Policy: p, Seed: 19})
		rate := workload.RateForLoad(0.7, 1, workload.A2().Mean())
		runWorkload(s, workload.A2(), rate, 400*sim.Millisecond, 20)
		return s.Metrics.Latency.Mean()
	}
	srpt := mean(sched.NewSRPT())
	fcfs := mean(sched.NewFCFSPreempt())
	if srpt >= fcfs {
		t.Fatalf("SRPT mean %.0f >= FCFS mean %.0f", srpt, fcfs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int64, uint64) {
		s := New(Config{Workers: 4, Quantum: 10 * sim.Microsecond, Mech: MechUINTR, Seed: 42})
		rate := workload.RateForLoad(0.8, 4, workload.A1().Mean())
		runWorkload(s, workload.A1(), rate, 100*sim.Millisecond, 43)
		return s.Metrics.Completed, s.Metrics.Latency.P99(), s.Metrics.Preemptions
	}
	c1, p1, n1 := run()
	c2, p2, n2 := run()
	if c1 != c2 || p1 != p2 || n1 != n2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, p1, n1, c2, p2, n2)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 0},
		{Workers: 1, Mech: MechKind(99)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSubmitNilPanics(t *testing.T) {
	s := New(Config{Workers: 1, Seed: 21})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Submit(nil)
}

func TestMechKindString(t *testing.T) {
	if MechUINTR.String() != "uintr" || MechKernelSignal.String() != "ksignal" ||
		MechNone.String() != "none" || MechPostedIPI.String() != "ipi" || MechKind(9).String() == "" {
		t.Fatal("MechKind strings wrong")
	}
}

func TestMeanServiceBound(t *testing.T) {
	if MeanServiceBound(5*sim.Microsecond) != sim.Millisecond {
		t.Fatal("bound helper wrong")
	}
}
