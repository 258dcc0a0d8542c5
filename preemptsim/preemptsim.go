// Package preemptsim is the public facade over the reproduction's
// simulation substrate: it can regenerate every table and figure of the
// LibPreemptible paper (Run), and it exposes a compact API for custom
// scheduling studies (Simulate) — pick a system, a workload, a load
// level, and get latency/throughput summaries back.
//
// All runs are deterministic for a fixed seed.
package preemptsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/libinger"
	"repro/internal/sched"
	"repro/internal/shinjuku"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options tune experiment fidelity (see EXPERIMENTS.md for full-run
// settings).
type Options struct {
	// Quick shrinks durations/sweeps for smoke runs.
	Quick bool
	// Seed fixes all randomness (default 1).
	Seed uint64
}

// Table is one regenerated paper artifact.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Experiments lists the available experiment ids (table1, fig2, …).
func Experiments() []string { return experiments.Names() }

// Run regenerates the experiment with the given id.
func Run(id string, o Options) ([]Table, error) {
	ts, err := experiments.Run(id, experiments.Options{Quick: o.Quick, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	out := make([]Table, len(ts))
	for i, t := range ts {
		out[i] = Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	}
	return out, nil
}

// String renders the table as a tab-separated block with a header.
func (t Table) String() string {
	s := "## " + t.Title + "\n"
	for i, c := range t.Columns {
		if i > 0 {
			s += "\t"
		}
		s += c
	}
	s += "\n"
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				s += "\t"
			}
			s += c
		}
		s += "\n"
	}
	return s
}

// SystemKind selects the scheduling system to simulate.
type SystemKind string

const (
	// LibPreemptible: UINTR-based preemption with a dedicated timer core.
	LibPreemptible SystemKind = "libpreemptible"
	// LibPreemptibleNoUINTR: the kernel-signal ablation.
	LibPreemptibleNoUINTR SystemKind = "libpreemptible-nouintr"
	// Shinjuku: centralized dispatch + posted-IPI preemption baseline.
	Shinjuku SystemKind = "shinjuku"
	// Libinger: kernel-timer-signal preemption baseline.
	Libinger SystemKind = "libinger"
)

// WorkloadKind selects a service-time distribution.
type WorkloadKind string

const (
	// A1/A2/B/C are the paper's §V-A workloads.
	A1 WorkloadKind = "A1"
	A2 WorkloadKind = "A2"
	B  WorkloadKind = "B"
	C  WorkloadKind = "C"
	// Exponential uses Workload.Mean.
	Exponential WorkloadKind = "exponential"
	// BimodalKind uses Workload.PShort/Short/Long.
	BimodalKind WorkloadKind = "bimodal"
)

// Workload describes the request service-time distribution.
type Workload struct {
	Kind WorkloadKind
	// Mean parameterizes Exponential.
	Mean time.Duration
	// PShort/Short/Long parameterize BimodalKind.
	PShort      float64
	Short, Long time.Duration
}

func (w Workload) dists() (first, second sim.Dist, err error) {
	switch w.Kind {
	case A1:
		return workload.A1(), nil, nil
	case A2:
		return workload.A2(), nil, nil
	case B:
		return workload.B(), nil, nil
	case C:
		return workload.A1(), workload.B(), nil
	case Exponential:
		if w.Mean <= 0 {
			return nil, nil, errors.New("preemptsim: exponential workload needs Mean > 0")
		}
		return sim.Exponential{MeanV: sim.Time(w.Mean)}, nil, nil
	case BimodalKind:
		if w.PShort <= 0 || w.PShort >= 1 || w.Short <= 0 || w.Long <= 0 {
			return nil, nil, errors.New("preemptsim: bimodal workload needs PShort in (0,1) and positive modes")
		}
		return sim.Bimodal{PShort: w.PShort, Short: sim.Time(w.Short), Long: sim.Time(w.Long)}, nil, nil
	default:
		return nil, nil, fmt.Errorf("preemptsim: unknown workload kind %q", w.Kind)
	}
}

// Config describes the simulated system for Simulate.
type Config struct {
	System SystemKind
	// Workers is the worker-core count (default 4).
	Workers int
	// Quantum is the preemption time slice (0 = run to completion; for
	// Adaptive systems it is the controller's starting point).
	Quantum time.Duration
	// Adaptive enables the Algorithm 1 quantum controller
	// (LibPreemptible only).
	Adaptive bool
	// Policy picks the queue discipline: "cfcfs" (default), "rr",
	// "srpt", "edf". LibPreemptible variants only.
	Policy string
	// Seed fixes the run (default 1).
	Seed uint64
}

// withDefaults fills in the zero-valued Workers and Seed.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result summarizes a Simulate run. Every system kind runs on the same
// engine and fills every field; Shinjuku and Libinger report a real
// Utilization (mean worker-core busy fraction), where they once read 0.
type Result struct {
	Completed     uint64
	ThroughputRPS float64
	Mean          time.Duration
	P50, P99      time.Duration
	P999          time.Duration
	Preemptions   uint64
	Utilization   float64
}

// summarize reads a finished run's Result.
func summarize(s *core.System) Result {
	return Result{
		Completed:     s.Metrics.Completed,
		ThroughputRPS: s.Throughput(),
		Mean:          time.Duration(s.Metrics.Latency.Mean()),
		P50:           time.Duration(s.Metrics.Latency.Median()),
		P99:           time.Duration(s.Metrics.Latency.P99()),
		P999:          time.Duration(s.Metrics.Latency.P999()),
		Preemptions:   s.Metrics.Preemptions,
		Utilization:   s.WorkerUtilization(),
	}
}

// newSystem resolves cfg (with defaults applied) into a simulated
// system. The baselines pin their own policy and mechanism. The
// LibPreemptible kinds take cfg.Policy's discipline and the mechanism
// cfg.System names (none when neither a quantum nor the controller asks
// for preemption), plus, when cfg.Adaptive, Algorithm 1 sized for the
// workload's mean service time and run every period.
func newSystem(cfg Config, mean, period sim.Time) (*core.System, error) {
	switch cfg.System {
	case Shinjuku:
		return shinjuku.New(shinjuku.Config{Workers: cfg.Workers, Quantum: sim.Time(cfg.Quantum), Seed: cfg.Seed}).System, nil
	case Libinger:
		return libinger.New(libinger.Config{Workers: cfg.Workers, Quantum: sim.Time(cfg.Quantum), Seed: cfg.Seed}).System, nil
	case "", LibPreemptible, LibPreemptibleNoUINTR:
	default:
		return nil, fmt.Errorf("preemptsim: unknown system %q", cfg.System)
	}
	pol, err := policyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	mech := core.MechUINTR
	if cfg.System == LibPreemptibleNoUINTR {
		mech = core.MechKernelSignal
	}
	if cfg.Quantum == 0 && !cfg.Adaptive {
		mech = core.MechNone
	}
	s := core.New(core.Config{
		Workers: cfg.Workers,
		Quantum: sim.Time(cfg.Quantum),
		Policy:  pol,
		Mech:    mech,
		Seed:    cfg.Seed,
	})
	if cfg.Adaptive {
		acfg := adaptive.DefaultConfig(workload.RateForLoad(1.0, cfg.Workers, mean))
		acfg.Period = period
		start := sim.Time(cfg.Quantum)
		if start == 0 {
			start = 20 * sim.Microsecond
		}
		adaptive.Attach(s, adaptive.NewController(acfg, start))
	}
	return s, nil
}

func policyFor(name string) (sched.Policy, error) {
	switch name {
	case "", "cfcfs":
		return sched.NewFCFSPreempt(), nil
	case "rr":
		return sched.NewRoundRobin(), nil
	case "srpt":
		return sched.NewSRPT(), nil
	case "edf":
		return sched.NewEDF(), nil
	default:
		return nil, fmt.Errorf("preemptsim: unknown policy %q", name)
	}
}

// Simulate runs the configured system against the workload at the given
// fraction of its aggregate service capacity for a virtual duration.
func Simulate(cfg Config, wl Workload, load float64, duration time.Duration) (Result, error) {
	if load <= 0 {
		return Result{}, errors.New("preemptsim: load must be positive")
	}
	if duration <= 0 {
		return Result{}, errors.New("preemptsim: duration must be positive")
	}
	cfg = cfg.withDefaults()
	first, second, err := wl.dists()
	if err != nil {
		return Result{}, err
	}
	dur := sim.Time(duration)
	phases := []workload.Phase{{Service: first, Rate: workload.RateForLoad(load, cfg.Workers, first.Mean())}}
	mean := first.Mean()
	if second != nil {
		phases[0].Duration = dur / 2
		phases = append(phases, workload.Phase{
			Service: second, Rate: workload.RateForLoad(load, cfg.Workers, second.Mean())})
		mean = (first.Mean() + second.Mean()) / 2
	}
	s, err := newSystem(cfg, mean, dur/40)
	if err != nil {
		return Result{}, err
	}
	gen := workload.NewOpenLoop(s.Eng, sim.NewRNG(cfg.Seed+0xabcdef), sched.ClassLC, phases, s.Submit)
	gen.Start()
	s.Eng.Run(dur)
	gen.Stop()
	s.Eng.RunAll()
	return summarize(s), nil
}
