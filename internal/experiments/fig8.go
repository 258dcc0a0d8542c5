package experiments

import (
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/libinger"
	"repro/internal/sched"
	"repro/internal/shinjuku"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig8Workload describes one of the paper's §V-A synthetic workloads.
type fig8Workload struct {
	name    string
	phases  func(load float64, workers int, dur sim.Time) []workload.Phase
	mean    sim.Time // blended mean service time (for the SLO bound)
	shinQ   sim.Time // Shinjuku's profiled-best static quantum
	dynamic bool     // workload C: distribution shift halfway
}

func fig8Workloads() []fig8Workload {
	single := func(d sim.Dist) func(load float64, workers int, dur sim.Time) []workload.Phase {
		return func(load float64, workers int, dur sim.Time) []workload.Phase {
			return []workload.Phase{{Service: d, Rate: workload.RateForLoad(load, workers, d.Mean())}}
		}
	}
	return []fig8Workload{
		{name: "A1", phases: single(workload.A1()), mean: workload.A1().Mean(), shinQ: 5 * sim.Microsecond},
		{name: "A2", phases: single(workload.A2()), mean: workload.A2().Mean(), shinQ: 10 * sim.Microsecond},
		{name: "B", phases: single(workload.B()), mean: workload.B().Mean(), shinQ: 20 * sim.Microsecond},
		{name: "C", dynamic: true, shinQ: 10 * sim.Microsecond,
			mean: (workload.A1().Mean() + workload.B().Mean()) / 2,
			phases: func(load float64, workers int, dur sim.Time) []workload.Phase {
				return []workload.Phase{
					{Duration: dur / 2, Service: workload.A1(),
						Rate: workload.RateForLoad(load, workers, workload.A1().Mean())},
					{Service: workload.B(),
						Rate: workload.RateForLoad(load, workers, workload.B().Mean())},
				}
			}},
	}
}

// fig8System runs one (system, workload, load) point and reports
// median/p99 latency and achieved throughput.
type fig8Point struct {
	p50us, p99us float64
	rps          float64
	completed    uint64
}

type fig8Runner func(wl fig8Workload, load float64, dur sim.Time, seed uint64) fig8Point

// fig8Systems: the paper's comparison set. Core budget is equalized:
// Shinjuku/Libinger get 1 net + 5 workers; LibPreemptible gets 1 net +
// 4 workers + 1 timer core (§V-A).
func fig8Systems(o Options) []struct {
	name string
	run  fig8Runner
	skip func(wl fig8Workload) bool
} {
	noSkip := func(fig8Workload) bool { return false }
	return []struct {
		name string
		run  fig8Runner
		skip func(wl fig8Workload) bool
	}{
		{"LibPreemptible", func(wl fig8Workload, load float64, dur sim.Time, seed uint64) fig8Point {
			const workers = 4
			s := core.New(core.Config{Workers: workers, Quantum: 20 * sim.Microsecond,
				Mech: core.MechUINTR, Seed: seed})
			maxLoad := workload.RateForLoad(1.0, workers, wl.mean)
			cfg := adaptive.DefaultConfig(maxLoad)
			cfg.Period = dur / 40
			adaptive.Attach(s, adaptive.NewController(cfg, 20*sim.Microsecond))
			return driveCore(s, wl, load, workers, dur, seed)
		}, noSkip},
		{"LibPreemptible-noUINTR", func(wl fig8Workload, load float64, dur sim.Time, seed uint64) fig8Point {
			const workers = 4
			s := core.New(core.Config{Workers: workers, Quantum: 20 * sim.Microsecond,
				Mech: core.MechKernelSignal, Seed: seed})
			return driveCore(s, wl, load, workers, dur, seed)
		}, noSkip},
		{"Shinjuku", func(wl fig8Workload, load float64, dur sim.Time, seed uint64) fig8Point {
			const workers = 5
			s := shinjuku.New(shinjuku.Config{Workers: workers, Quantum: wl.shinQ, Seed: seed})
			return driveCore(s.System, wl, load, workers, dur, seed)
		}, noSkip},
		{"Libinger", func(wl fig8Workload, load float64, dur sim.Time, seed uint64) fig8Point {
			const workers = 5
			s := libinger.New(libinger.Config{Workers: workers, Quantum: 60 * sim.Microsecond, Seed: seed})
			return driveCore(s.System, wl, load, workers, dur, seed)
		}, func(wl fig8Workload) bool {
			// Libinger has no dynamic-quantum support; the paper
			// reports NA for workload C.
			return wl.dynamic
		}},
	}
}

// fig8Warmup is the fraction of a run excluded from statistics so that
// steady-state numbers are not polluted by ramp-up (in particular the
// adaptive controller converging from its initial quantum).
const fig8Warmup = 5 // dur / fig8Warmup

func driveCore(s *core.System, wl fig8Workload, load float64, workers int, dur sim.Time, seed uint64) fig8Point {
	gen := workload.NewOpenLoop(s.Eng, sim.NewRNG(seed+13), sched.ClassLC,
		wl.phases(load, workers, dur), s.Submit)
	s.Eng.ScheduleDaemon(dur/fig8Warmup, s.ResetStats)
	gen.Start()
	s.Eng.Run(dur)
	gen.Stop()
	s.Eng.RunAll()
	snap := s.Metrics.Latency.Snapshot()
	return fig8Point{us(snap.Median), us(snap.P99), s.Throughput(), s.Metrics.Completed}
}

// Fig8 regenerates the headline comparison: median and p99 latency
// versus load for LibPreemptible (adaptive), the no-UINTR ablation,
// Shinjuku, and Libinger on workloads A1/A2/B/C, plus the maximum
// throughput each system sustains under the paper's SLO (p99 ≤ 200×
// mean service time).
func Fig8(o Options) []*stats.Table {
	dur := scale(o, 600*sim.Millisecond, 80*sim.Millisecond)
	loads := scale(o,
		[]float64{0.3, 0.5, 0.7, 0.8, 0.9, 0.95},
		[]float64{0.5, 0.8})
	systems := fig8Systems(o)

	curves := &stats.Table{
		Title:   "Fig 8: latency vs load, LibPreemptible vs baselines",
		Columns: []string{"workload", "system", "load", "p50_us", "p99_us", "krps"},
	}
	// Max-throughput table: absolute and per-worker-core. The paper's
	// core-budget comparison gives LibPreemptible 4 workers (+1 timer
	// core) against Shinjuku's 5 workers, so per-worker efficiency is
	// the cleaner signal of scheduling overhead.
	maxTp := &stats.Table{
		Title:   "Fig 8 (right): max throughput under SLO p99 <= 200x mean service",
		Columns: []string{"workload", "system", "max_krps", "krps_per_worker", "per_worker_vs_shinjuku"},
	}

	workersOf := map[string]float64{
		"LibPreemptible":         4,
		"LibPreemptible-noUINTR": 4,
		"Shinjuku":               5,
		"Libinger":               5,
	}

	for wi, wl := range fig8Workloads() {
		shinPerWorker := 0.0
		var rows []struct {
			name string
			krps float64
		}
		for si, sys := range systems {
			if sys.skip(wl) {
				for _, load := range loads {
					curves.AddRow(wl.name, sys.name, load, "NA", "NA", "NA")
				}
				rows = append(rows, struct {
					name string
					krps float64
				}{sys.name, -1})
				continue
			}
			for li, load := range loads {
				pt := sys.run(wl, load, dur, o.seed()+uint64(wi*1000+si*100+li))
				curves.AddRow(wl.name, sys.name, load, pt.p50us, pt.p99us, pt.rps/1000)
			}
			// Max-throughput search: bisection on load under the SLO.
			slo := us(int64(core.MeanServiceBound(wl.mean)))
			iters := scale(o, 9, 6)
			searchDur := scale(o, 300*sim.Millisecond, 60*sim.Millisecond)
			var best float64
			it := 0
			workload.FindMaxLoad(0.2, 1.4, iters, func(mid float64) bool {
				pt := sys.run(wl, mid, searchDur, o.seed()+uint64(wi*1000+si*100+50+it))
				it++
				if pt.p99us <= slo {
					best = pt.rps
					return true
				}
				return false
			})
			rows = append(rows, struct {
				name string
				krps float64
			}{sys.name, best / 1000})
			if sys.name == "Shinjuku" {
				shinPerWorker = best / 1000 / workersOf[sys.name]
			}
		}
		for _, r := range rows {
			if r.krps < 0 {
				maxTp.AddRow(wl.name, r.name, "NA", "NA", "NA")
				continue
			}
			perWorker := r.krps / workersOf[r.name]
			rel := 0.0
			if shinPerWorker > 0 {
				rel = perWorker / shinPerWorker
			}
			maxTp.AddRow(wl.name, r.name, r.krps, perWorker, rel)
		}
	}
	return []*stats.Table{curves, maxTp}
}
