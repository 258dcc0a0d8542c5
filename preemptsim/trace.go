package preemptsim

import (
	"errors"
	"io"
	"time"

	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SimulateTrace replays a recorded request trace (CSV as written by
// RecordTrace: "arrival_ns,service_ns,class" lines) into a
// LibPreemptible system and reports the same summary as Simulate.
// Replaying one trace into differently-configured systems gives
// variance-free A/B comparisons. Only the LibPreemptible system kinds
// are supported.
func SimulateTrace(cfg Config, traceCSV io.Reader) (Result, error) {
	tr, err := replay.ReadCSV(traceCSV)
	if err != nil {
		return Result{}, err
	}
	if tr.Len() == 0 {
		return Result{}, errors.New("preemptsim: empty trace")
	}
	switch cfg.System {
	case "", LibPreemptible, LibPreemptibleNoUINTR:
	default:
		return Result{}, errors.New("preemptsim: SimulateTrace supports LibPreemptible variants only")
	}
	period := tr.Duration() / 40
	if period <= 0 {
		period = sim.Millisecond
	}
	s, err := newSystem(cfg.withDefaults(), tr.TotalDemand()/sim.Time(tr.Len()), period)
	if err != nil {
		return Result{}, err
	}
	if err := tr.Replay(s.Eng, s.Submit); err != nil {
		return Result{}, err
	}
	s.Eng.RunAll()
	return summarize(s), nil
}

// RecordTrace draws a synthetic workload once and writes it as a CSV
// trace for SimulateTrace: the paper's workloads (A1/A2/B/C or custom)
// at a given fraction of the capacity of `workers` workers.
func RecordTrace(w io.Writer, wl Workload, load float64, workers int, duration time.Duration, seed uint64) error {
	if load <= 0 || duration <= 0 {
		return errors.New("preemptsim: need positive load and duration")
	}
	if workers <= 0 {
		workers = 4
	}
	if seed == 0 {
		seed = 1
	}
	first, second, err := wl.dists()
	if err != nil {
		return err
	}
	dur := sim.Time(duration)
	phases := []workload.Phase{{Service: first, Rate: workload.RateForLoad(load, workers, first.Mean())}}
	if second != nil {
		phases[0].Duration = dur / 2
		phases = append(phases, workload.Phase{
			Service: second, Rate: workload.RateForLoad(load, workers, second.Mean())})
	}
	tr := replay.Record(phases, dur, sched.ClassLC, seed)
	return tr.WriteCSV(w)
}
