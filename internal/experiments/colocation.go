package experiments

import (
	"repro/internal/adaptive"
	"repro/internal/bejob"
	"repro/internal/core"
	"repro/internal/mica"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Colocation describes one colocation run: a MICA LC job sharing worker
// cores with a zlib BE job, per §V-C. It is the one colocation model:
// Fig. 13, Fig. 14 and preemptsim.SimulateColocation all run it.
type Colocation struct {
	Workers    int             // worker cores (default 1, the paper's setup)
	BEFraction float64         // BE share of arrivals (default 0.02, the paper's 98/2 mix)
	QPS        float64         // constant arrival rate (used when RateFn nil)
	RateFn     workload.RateFn // bursty arrival rate (Fig. 14)
	MaxRate    float64         // bound for RateFn thinning
	Quantum    sim.Time        // 0 = non-preemptive baseline (LC-Base)
	Dynamic    *adaptive.QPSInterval
	Monitor    sim.Time // dynamic-policy monitor period
	Dur        sim.Time
	Seed       uint64
	OnDone     func(r *sched.Request)
}

// Start builds the system and schedules its first arrival; the caller
// runs the engine to Dur (Run does), after adding any events of its own.
func (c Colocation) Start() *core.System {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.BEFraction == 0 {
		c.BEFraction = 0.02
	}
	mech := core.MechUINTR
	if c.Quantum == 0 && c.Dynamic == nil {
		mech = core.MechNone
	}
	s := core.New(core.Config{
		Workers:    c.Workers,
		Quantum:    c.Quantum,
		Policy:     sched.NewFCFSPreempt(),
		Mech:       mech,
		Seed:       c.Seed,
		OnComplete: c.OnDone,
	})
	if c.Dynamic != nil {
		adaptive.AttachQPS(s, *c.Dynamic, c.Monitor)
	}

	lcGen := mica.NewGenerator(mica.DefaultWorkloadConfig(), sim.NewRNG(c.Seed+1))
	beGen := bejob.NewGenerator(bejob.DefaultConfig(), sim.NewRNG(c.Seed+2))
	rng := sim.NewRNG(c.Seed + 3)

	// Arrivals are Poisson at QPS, or — with a RateFn — Poisson at
	// MaxRate thinned down to the rate of the moment.
	rate := c.QPS
	if c.RateFn != nil {
		rate = c.MaxRate
	}
	var loop func()
	loop = func() {
		gap := sim.Time(rng.Exp(float64(sim.Second) / rate))
		if gap < 1 {
			gap = 1
		}
		s.Eng.Schedule(gap, func() {
			now := s.Eng.Now()
			if now >= c.Dur {
				return
			}
			if c.RateFn == nil || rng.Float64() < c.RateFn(now)/c.MaxRate {
				if rng.Bernoulli(c.BEFraction) {
					s.Submit(beGen.NextRequest(now))
				} else {
					s.Submit(lcGen.NextRequest(now))
				}
			}
			loop()
		})
	}
	loop()
	return s
}

// Run runs the colocation to completion and returns the system for its
// metrics.
func (c Colocation) Run() *core.System {
	s := c.Start()
	s.Eng.Run(c.Dur)
	s.Eng.RunAll()
	return s
}

// Fig13 regenerates the fixed-quantum colocation study. Left: p99 of
// the LC job with (LC-Lib, 30 µs quantum) and without (LC-Base)
// preemptive scheduling across load, plus the BE job's p99. Right: the
// quantum sweep at 55 kRPS showing the LC-tail / BE-overhead trade-off.
func Fig13(o Options) []*stats.Table {
	dur := scale(o, 2*sim.Second, 300*sim.Millisecond)
	left := &stats.Table{
		Title:   "Fig 13 (left): colocated LC/BE p99 at fixed 30us quantum vs non-preemptive",
		Columns: []string{"krps", "system", "lc_p99_us", "be_p99_us", "lc_improvement"},
	}
	loads := scale(o, []float64{40000, 55000, 70000, 85000}, []float64{55000})
	for li, qps := range loads {
		base := Colocation{QPS: qps, Quantum: 0, Dur: dur, Seed: o.seed() + uint64(li)}.Run()
		lib := Colocation{QPS: qps, Quantum: 30 * sim.Microsecond, Dur: dur, Seed: o.seed() + uint64(li)}.Run()
		bp, lp := base.Metrics.LatencyLC.P99(), lib.Metrics.LatencyLC.P99()
		left.AddRow(qps/1000, "LC-Base", us(bp), us(base.Metrics.LatencyBE.P99()), 1.0)
		imp := 0.0
		if lp > 0 {
			imp = float64(bp) / float64(lp)
		}
		left.AddRow(qps/1000, "LC-Lib(30us)", us(lp), us(lib.Metrics.LatencyBE.P99()), imp)
	}

	// The quantum sweep uses common random numbers (same seed for every
	// quantum) so the BE-penalty column isolates the quantum's effect;
	// the penalty is on the BE job's mean latency, the stable statistic
	// at Fig. 13's sample sizes.
	right := &stats.Table{
		Title:   "Fig 13 (right): quantum sweep at 55 kRPS",
		Columns: []string{"quantum_us", "lc_p99_us", "be_mean_us", "be_p99_us", "be_penalty_vs_nopreempt"},
	}
	base := Colocation{QPS: 55000, Quantum: 0, Dur: dur, Seed: o.seed() + 50}.Run()
	beBase := base.Metrics.LatencyBE.Mean()
	right.AddRow("none", us(base.Metrics.LatencyLC.P99()), beBase/1000,
		us(base.Metrics.LatencyBE.P99()), 1.0)
	quanta := scale(o,
		[]sim.Time{5 * sim.Microsecond, 10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond, 50 * sim.Microsecond},
		[]sim.Time{5 * sim.Microsecond, 30 * sim.Microsecond})
	for _, q := range quanta {
		s := Colocation{QPS: 55000, Quantum: q, Dur: dur, Seed: o.seed() + 50}.Run()
		beMean := s.Metrics.LatencyBE.Mean()
		pen := 0.0
		if beBase > 0 {
			pen = beMean / beBase
		}
		right.AddRow(q.Micros(), us(s.Metrics.LatencyLC.P99()), beMean/1000,
			us(s.Metrics.LatencyBE.P99()), pen)
	}
	return []*stats.Table{left, right}
}

// Fig14 regenerates the bursty-load colocation study: average LC and BE
// latency over time under a square-wave QPS (40 ↔ 110 kRPS) with a
// constant 50 µs interval, a constant 10 µs interval, and the dynamic
// QPS-driven interval controller.
func Fig14(o Options) []*stats.Table {
	dur := scale(o, 10*sim.Second, 2*sim.Second)
	window := dur / 50
	period := dur / 5 // five bursts over the run
	rate := workload.SquareWave(40000, 110000, period, 0.4)

	series := &stats.Table{
		Title:   "Fig 14: LC/BE average latency over time under bursty load",
		Columns: []string{"policy", "t_s", "qps_krps", "lc_avg_us", "be_avg_us"},
	}
	summary := &stats.Table{
		Title:   "Fig 14 (summary): mean latencies over the run",
		Columns: []string{"policy", "lc_mean_us", "lc_mean_in_burst_us", "be_mean_us"},
	}

	dynCfg := adaptive.QPSInterval{
		MinInterval: 10 * sim.Microsecond,
		MaxInterval: 50 * sim.Microsecond,
		LowQPS:      40000,
		HighQPS:     110000,
	}
	type pol struct {
		name    string
		quantum sim.Time
		dyn     *adaptive.QPSInterval
	}
	pols := []pol{
		{"constant-50us", 50 * sim.Microsecond, nil},
		{"constant-10us", 10 * sim.Microsecond, nil},
		{"dynamic", 30 * sim.Microsecond, &dynCfg},
	}
	for pi, p := range pols {
		// Windowed accumulators, appended on window ticks.
		type acc struct {
			lcSum, beSum sim.Time
			lcN, beN     uint64
		}
		var cur acc
		var burstLcSum sim.Time
		var burstLcN uint64
		var totLcSum, totBeSum sim.Time
		var totLcN, totBeN uint64
		arrivalsInWindow := uint64(0)

		s := Colocation{
			RateFn:  rate,
			MaxRate: 110000,
			Quantum: p.quantum,
			Dynamic: p.dyn,
			Monitor: window,
			Dur:     dur,
			Seed:    o.seed() + uint64(pi*7),
			OnDone: func(r *sched.Request) {
				arrivalsInWindow++
				lat := r.Latency()
				if r.Class == sched.ClassLC {
					cur.lcSum += lat
					cur.lcN++
					totLcSum += lat
					totLcN++
					if rate(r.Arrival) > 100000 {
						burstLcSum += lat
						burstLcN++
					}
				} else {
					cur.beSum += lat
					cur.beN++
					totBeSum += lat
					totBeN++
				}
			},
		}.Start()

		// The window sampler rides on the same engine.
		name := p.name
		var tick func()
		tick = func() {
			now := s.Eng.Now()
			lcAvg, beAvg := 0.0, 0.0
			if cur.lcN > 0 {
				lcAvg = float64(cur.lcSum) / float64(cur.lcN) / 1000
			}
			if cur.beN > 0 {
				beAvg = float64(cur.beSum) / float64(cur.beN) / 1000
			}
			series.AddRow(name, now.Seconds(), rate(now)/1000, lcAvg, beAvg)
			cur = acc{}
			arrivalsInWindow = 0
			if now < dur {
				s.Eng.Schedule(window, tick)
			}
		}
		s.Eng.Schedule(window, tick)

		s.Eng.Run(dur)
		s.Eng.RunAll()

		mean := func(sum sim.Time, n uint64) float64 {
			if n == 0 {
				return 0
			}
			return float64(sum) / float64(n) / 1000
		}
		summary.AddRow(name, mean(totLcSum, totLcN), mean(burstLcSum, burstLcN), mean(totBeSum, totBeN))
	}
	return []*stats.Table{series, summary}
}
