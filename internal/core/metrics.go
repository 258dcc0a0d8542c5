package core

import (
	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Metrics aggregates the measurements a System produces: latency
// histograms (overall and per class), throughput counters, preemption
// accounting, and the sliding window the adaptive controller consumes
// (the "Stats" box of Fig. 5).
type Metrics struct {
	Submitted   uint64
	Completed   uint64
	Preemptions uint64
	Spurious    uint64
	Steals      uint64
	Cancelled   uint64
	// IPISends counts posted interrupts the dispatcher sent
	// (MechPostedIPI; a check that found the request gone is Spurious).
	IPISends uint64

	Latency   *stats.Histogram
	LatencyLC *stats.Histogram
	LatencyBE *stats.Histogram

	winLats     []float64
	winSvc      []float64
	winArrivals uint64
}

func newMetrics() Metrics {
	return Metrics{
		Latency:   stats.NewHistogram(),
		LatencyLC: stats.NewHistogram(),
		LatencyBE: stats.NewHistogram(),
	}
}

func (m *Metrics) record(r *sched.Request) {
	m.Completed++
	lat := int64(r.Latency())
	m.Latency.Record(lat)
	switch r.Class {
	case sched.ClassLC:
		m.LatencyLC.Record(lat)
	case sched.ClassBE:
		m.LatencyBE.Record(lat)
	}
	m.winLats = append(m.winLats, float64(lat))
	m.winSvc = append(m.winSvc, float64(r.Service))
}

// Window is the per-period statistics snapshot handed to the adaptive
// quantum controller: arrival count, completed-request latencies and
// service times (ns), and the preempted-queue length at drain time.
// Service times are what the tail classifier uses — they reflect the
// workload itself, where sojourn latencies also reflect the scheduler's
// own current quantum (a feedback loop that would trap the controller).
type Window struct {
	Arrivals     uint64
	Latencies    []float64
	ServiceTimes []float64
	QueueLen     int
}

// DrainWindow returns and resets the controller window.
func (s *System) DrainWindow() Window {
	w := Window{
		Arrivals:     s.Metrics.winArrivals,
		Latencies:    s.Metrics.winLats,
		ServiceTimes: s.Metrics.winSvc,
		QueueLen:     s.PreemptedLen(),
	}
	s.Metrics.winArrivals = 0
	s.Metrics.winLats = nil
	s.Metrics.winSvc = nil
	return w
}

// ResetStats clears the latency histograms and counters, starting a
// fresh measurement epoch at the current virtual time. Experiments call
// it after a warm-up period so that steady-state statistics are not
// polluted by ramp-up transients (e.g. the adaptive controller
// converging from its initial quantum).
func (s *System) ResetStats() {
	s.Metrics.Latency.Reset()
	s.Metrics.LatencyLC.Reset()
	s.Metrics.LatencyBE.Reset()
	s.Metrics.Submitted = 0
	s.Metrics.Completed = 0
	s.Metrics.Preemptions = 0
	s.Metrics.Spurious = 0
	s.Metrics.Steals = 0
	s.Metrics.Cancelled = 0
	s.Metrics.IPISends = 0
	s.statsSince = s.Eng.Now()
}

// Throughput reports completed requests per second of virtual time
// since the last ResetStats (or the start of the run).
func (s *System) Throughput() float64 {
	elapsed := s.Eng.Now() - s.statsSince
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Metrics.Completed) / elapsed.Seconds()
}

// WorkerUtilization reports mean worker-core utilization.
func (s *System) WorkerUtilization() float64 {
	if len(s.workers) == 0 {
		return 0
	}
	var sum float64
	for _, w := range s.workers {
		sum += w.core.Utilization()
	}
	return sum / float64(len(s.workers))
}

// InFlight reports requests submitted but not completed. It is tracked
// independently of the resettable counters.
func (s *System) InFlight() uint64 { return s.inflight }

// ChaosCounters reports the fault injector's tally (zero value when no
// injector is configured). Deterministic for a fixed Config and
// workload, so tests can assert exact fault counts.
func (s *System) ChaosCounters() chaos.Counters {
	if s.cfg.Chaos == nil {
		return chaos.Counters{}
	}
	return s.cfg.Chaos.Counters
}

// LatencySnapshot summarizes overall request latency so far.
func (s *System) LatencySnapshot() stats.Snapshot { return s.Metrics.Latency.Snapshot() }

// MeanServiceBound is the paper's stability bound helper: max
// throughput is measured "by bounding 99% tail latency by 200x the
// average latency in a stable system" (§V-A). Given the workload's mean
// service time it returns that SLO bound.
func MeanServiceBound(meanService sim.Time) sim.Time { return 200 * meanService }
