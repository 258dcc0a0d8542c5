package rpcserver

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func TestServerCompletesRequests(t *testing.T) {
	s := New(Config{KernelThreads: 4, UserThreadsPerKT: 8, ServiceMean: 20 * sim.Microsecond, Seed: 1})
	res := s.RunLoad(100000, 100*sim.Millisecond, 2)
	if res.Completed < 9000 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.Load < 0.49 || res.Load > 0.51 {
		t.Fatalf("load = %f, want 0.5", res.Load)
	}
	if s.System().InFlight() != 0 {
		t.Fatal("requests stuck")
	}
}

func TestConcurrencyBoundedBySlots(t *testing.T) {
	s := New(Config{KernelThreads: 2, UserThreadsPerKT: 2, ServiceMean: 50 * sim.Microsecond, Seed: 3})
	// Submit a burst far exceeding 4 slots.
	for i := 0; i < 100; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, 50*sim.Microsecond))
	}
	if s.Admitted != 4 {
		t.Fatalf("admitted %d immediately, want 4 (slots)", s.Admitted)
	}
	if s.Backlogged == 0 {
		t.Fatal("backlog never used")
	}
	s.Engine().RunAll()
	if s.Admitted != 100 {
		t.Fatalf("eventually admitted %d, want all 100", s.Admitted)
	}
}

func TestPreemptionOverheadIsSmall(t *testing.T) {
	// Fig. 10: with a sane quantum, LibPreemptible adds only ~1% to the
	// RPC server's tail latency at high load.
	base := New(Config{KernelThreads: 4, UserThreadsPerKT: 16, ServiceMean: 20 * sim.Microsecond, Seed: 4})
	baseRes := base.RunLoad(178000, 300*sim.Millisecond, 5) // ~89% load

	prem := New(Config{KernelThreads: 4, UserThreadsPerKT: 16, ServiceMean: 20 * sim.Microsecond,
		Quantum: 100 * sim.Microsecond, Seed: 4})
	premRes := prem.RunLoad(178000, 300*sim.Millisecond, 5)

	overhead := float64(premRes.Snapshot.P99)/float64(baseRes.Snapshot.P99) - 1
	if overhead > 0.10 {
		t.Fatalf("p99 overhead = %.1f%%, want small (~1%%)", overhead*100)
	}
	if overhead < -0.10 {
		t.Fatalf("preemption made p99 %.1f%% better on exponential load — suspicious", -overhead*100)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, cfg := range []Config{
		{KernelThreads: 0, UserThreadsPerKT: 1, ServiceMean: 1},
		{KernelThreads: 1, UserThreadsPerKT: 0, ServiceMean: 1},
		{KernelThreads: 1, UserThreadsPerKT: 1, ServiceMean: 0},
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

func TestUserThreadsPlusPreemptionRelieveHoL(t *testing.T) {
	// One kernel thread, a 1 ms request followed by short ones: with
	// T_n = 1 the shorts queue in the backlog behind the long request;
	// with T_n = 8 and preemption they overtake it.
	worstShort := func(tn int, quantum sim.Time) sim.Time {
		s := New(Config{KernelThreads: 1, UserThreadsPerKT: tn,
			ServiceMean: 20 * sim.Microsecond, Quantum: quantum, Seed: 6})
		long := sched.NewRequest(1, sched.ClassLC, 0, sim.Millisecond)
		s.Submit(long)
		var shorts []*sched.Request
		s.Engine().Schedule(5*sim.Microsecond, func() {
			for i := 0; i < 4; i++ {
				r := sched.NewRequest(uint64(10+i), sched.ClassLC, s.Engine().Now(), 2*sim.Microsecond)
				shorts = append(shorts, r)
				s.Submit(r)
			}
		})
		s.Engine().RunAll()
		var worst sim.Time
		for _, r := range shorts {
			if l := r.Latency(); l > worst {
				worst = l
			}
		}
		return worst
	}
	blocked := worstShort(1, 0)
	relieved := worstShort(8, 20*sim.Microsecond)
	if relieved*4 > blocked {
		t.Fatalf("preemption did not relieve HoL: %v vs %v", relieved, blocked)
	}
}

func TestSPEDModelAdmitsEverything(t *testing.T) {
	s := New(Config{Model: SPED, KernelThreads: 2, ServiceMean: 50 * sim.Microsecond, Seed: 21})
	for i := 0; i < 500; i++ {
		s.Submit(sched.NewRequest(uint64(i), sched.ClassLC, 0, 50*sim.Microsecond))
	}
	if s.Admitted != 500 {
		t.Fatalf("SPED admitted %d of 500 immediately", s.Admitted)
	}
	s.Engine().RunAll()
	if s.System().InFlight() != 0 {
		t.Fatal("requests stuck")
	}
}

func TestSPEDPaysEventLoopTax(t *testing.T) {
	// SPED admits everything through the event loop but pays its
	// per-request parse/route cost, visible at the median; the thread
	// pool instead parks excess requests in the accept backlog.
	pool := New(Config{Model: ThreadPool, KernelThreads: 2, UserThreadsPerKT: 1,
		ServiceMean: 50 * sim.Microsecond, Seed: 22})
	sped := New(Config{Model: SPED, KernelThreads: 2,
		ServiceMean: 50 * sim.Microsecond, Seed: 22})
	poolRes := pool.RunLoad(10000, 100*sim.Millisecond, 23)
	spedRes := sped.RunLoad(10000, 100*sim.Millisecond, 23)
	if spedRes.Snapshot.Median <= poolRes.Snapshot.Median {
		t.Fatalf("SPED median %d not above pool %d at low load",
			spedRes.Snapshot.Median, poolRes.Snapshot.Median)
	}
	if pool.Backlogged == 0 {
		t.Fatal("tight pool never backlogged")
	}
	if sped.Backlogged != 0 {
		t.Fatal("SPED should never backlog")
	}
}

func TestModelString(t *testing.T) {
	if ThreadPool.String() == "" || SPED.String() == "" {
		t.Fatal("model names broken")
	}
}
