package preemptsim

import (
	"errors"
	"time"

	"repro/internal/adaptive"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// ColocationConfig describes a §V-C style colocation study: a
// latency-critical MICA-like KV job sharing workers with a best-effort
// compression job under FCFS-with-preemption.
type ColocationConfig struct {
	// Workers is the worker-core count (default 1, the paper's setup).
	Workers int
	// QPS is the total arrival rate across both jobs.
	QPS float64
	// BEFraction is the best-effort share of arrivals (default 0.02).
	BEFraction float64
	// Quantum is the static preemption interval (0 = run to
	// completion, the LC-Base configuration).
	Quantum time.Duration
	// Dynamic, when non-nil, replaces the static quantum with the
	// QPS-driven interval controller of §V-C policy #2.
	Dynamic *DynamicInterval
	// Seed fixes the run (default 1).
	Seed uint64
}

// DynamicInterval mirrors adaptive.QPSInterval for the public API.
type DynamicInterval struct {
	MinInterval, MaxInterval time.Duration
	LowQPS, HighQPS          float64
	// MonitorPeriod is the QPS sampling cadence (default duration/50).
	MonitorPeriod time.Duration
}

// ColocationResult reports per-class latency summaries.
type ColocationResult struct {
	LCCompleted, BECompleted uint64
	LCMean, LCP50, LCP99     time.Duration
	BEMean, BEP50, BEP99     time.Duration
	Preemptions              uint64
}

// SimulateColocation runs the colocation scenario for a virtual
// duration and reports per-class latency statistics.
func SimulateColocation(cfg ColocationConfig, duration time.Duration) (ColocationResult, error) {
	if cfg.QPS <= 0 {
		return ColocationResult{}, errors.New("preemptsim: QPS must be positive")
	}
	if duration <= 0 {
		return ColocationResult{}, errors.New("preemptsim: duration must be positive")
	}
	if cfg.BEFraction < 0 || cfg.BEFraction >= 1 {
		return ColocationResult{}, errors.New("preemptsim: BEFraction must be in [0, 1)")
	}
	c := experiments.Colocation{
		Workers:    cfg.Workers,
		BEFraction: cfg.BEFraction,
		QPS:        cfg.QPS,
		Quantum:    sim.Time(cfg.Quantum),
		Dur:        sim.Time(duration),
		Seed:       cfg.Seed,
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if d := cfg.Dynamic; d != nil {
		c.Dynamic = &adaptive.QPSInterval{
			MinInterval: sim.Time(d.MinInterval),
			MaxInterval: sim.Time(d.MaxInterval),
			LowQPS:      d.LowQPS,
			HighQPS:     d.HighQPS,
		}
		c.Monitor = sim.Time(d.MonitorPeriod)
		if c.Monitor == 0 {
			c.Monitor = c.Dur / 50
		}
	}
	s := c.Run()

	return ColocationResult{
		LCCompleted: s.Metrics.LatencyLC.Count(),
		BECompleted: s.Metrics.LatencyBE.Count(),
		LCMean:      time.Duration(s.Metrics.LatencyLC.Mean()),
		LCP50:       time.Duration(s.Metrics.LatencyLC.Median()),
		LCP99:       time.Duration(s.Metrics.LatencyLC.P99()),
		BEMean:      time.Duration(s.Metrics.LatencyBE.Mean()),
		BEP50:       time.Duration(s.Metrics.LatencyBE.Median()),
		BEP99:       time.Duration(s.Metrics.LatencyBE.P99()),
		Preemptions: s.Metrics.Preemptions,
	}, nil
}
