// Package rpcserver models the §V-B deployment-overhead experiment: a
// gRPC-style thread-pool RPC server (blocking threading model) serving
// exponential requests, with LibPreemptible optionally layered on top.
//
// The server admits at most KernelThreads × UserThreadsPerKT requests
// concurrently (the thread-pool slots, T_n user-level threads per
// kernel thread); excess requests wait in the accept backlog. Measuring
// the latency distribution at increasing QPS with and without
// preemption reproduces Fig. 10's finding: ~1.2% tail-latency overhead
// near 89% load, growing sublinearly with load.
package rpcserver

import (
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Model selects the server's threading model (§V-B: the paper deploys
// on a blocking thread pool and notes LibPreemptible also fits SPED).
type Model int

const (
	// ThreadPool is the blocking model: KernelThreads × UserThreadsPerKT
	// concurrency slots; excess requests wait in the accept backlog.
	ThreadPool Model = iota
	// SPED is the single-process event-driven model: an event loop
	// admits every request immediately (no slot limit) and hands it to
	// the workers; per-request event-loop processing costs more than a
	// pool slot handoff.
	SPED
)

func (m Model) String() string {
	if m == SPED {
		return "sped"
	}
	return "thread-pool"
}

// Config parameterizes the server.
type Config struct {
	// Model selects the threading model (default ThreadPool).
	Model Model
	// KernelThreads is the worker (kernel thread) count.
	KernelThreads int
	// UserThreadsPerKT is T_n: user-level threads multiplexed on each
	// kernel thread; it bounds admitted concurrency (ThreadPool only).
	UserThreadsPerKT int
	// Quantum enables LibPreemptible preemption when positive.
	Quantum sim.Time
	// ServiceMean is the exponential request service time.
	ServiceMean sim.Time
	// Seed fixes the run.
	Seed uint64
}

// spedEventCost is the extra per-request event-loop work of the SPED
// model (non-blocking socket readiness handling + parse + route).
const spedEventCost = 450 * sim.Nanosecond

// Server is the RPC server under either threading model.
type Server struct {
	sys      *core.System
	cfg      Config
	slots    int
	inFlight int
	backlog  []*sched.Request
	backHead int

	// Admitted counts requests that entered the pool; Backlogged counts
	// requests that had to wait for a slot.
	Admitted, Backlogged uint64
}

// New builds a server. Quantum 0 gives the no-preemption baseline.
func New(cfg Config) *Server {
	if cfg.Model == SPED && cfg.UserThreadsPerKT == 0 {
		cfg.UserThreadsPerKT = 1 << 20 // event-driven: effectively unbounded
	}
	if cfg.KernelThreads <= 0 || cfg.UserThreadsPerKT <= 0 {
		panic("rpcserver: need positive thread counts")
	}
	if cfg.ServiceMean <= 0 {
		panic("rpcserver: need positive service mean")
	}
	s := &Server{cfg: cfg, slots: cfg.KernelThreads * cfg.UserThreadsPerKT}
	mech := core.MechNone
	if cfg.Quantum > 0 {
		mech = core.MechUINTR
	}
	costs := hw.DefaultCosts()
	if cfg.Model == SPED {
		// The event loop parses and routes every request itself.
		costs.DispatchCost += spedEventCost
	}
	s.sys = core.New(core.Config{
		Workers: cfg.KernelThreads,
		Quantum: cfg.Quantum,
		Policy:  sched.NewRoundRobin(),
		Mech:    mech,
		Costs:   &costs,
		Seed:    cfg.Seed ^ 0x727063737276,
		OnComplete: func(*sched.Request) {
			s.inFlight--
			s.admit()
		},
	})
	return s
}

// System exposes the underlying runtime for metric access.
func (s *Server) System() *core.System { return s.sys }

// Engine exposes the simulation engine.
func (s *Server) Engine() *sim.Engine { return s.sys.Eng }

// Submit delivers one RPC to the server: it runs at once if a pool
// slot is free and waits in the accept backlog otherwise.
func (s *Server) Submit(r *sched.Request) {
	s.backlog = append(s.backlog, r)
	s.admit()
}

func (s *Server) admit() {
	for s.inFlight < s.slots && s.backHead < len(s.backlog) {
		r := s.backlog[s.backHead]
		s.backlog[s.backHead] = nil
		s.backHead++
		if s.backHead > 256 && s.backHead*2 >= len(s.backlog) {
			s.backlog = append([]*sched.Request(nil), s.backlog[s.backHead:]...)
			s.backHead = 0
		}
		s.inFlight++
		s.Admitted++
		s.sys.Submit(r)
	}
	if s.backHead < len(s.backlog) {
		s.Backlogged++
	}
}

// LoadResult summarizes one QPS level.
type LoadResult struct {
	QPS       float64
	Load      float64 // fraction of aggregate capacity
	Snapshot  stats.Snapshot
	Completed uint64
}

// RunLoad drives the server open-loop at qps for the duration and
// returns the latency summary.
func (s *Server) RunLoad(qps float64, duration sim.Time, seed uint64) LoadResult {
	gen := workload.NewOpenLoop(s.sys.Eng, sim.NewRNG(seed), sched.ClassLC,
		[]workload.Phase{{Service: sim.Exponential{MeanV: s.cfg.ServiceMean}, Rate: qps}},
		s.Submit)
	gen.Start()
	s.sys.Eng.Run(s.sys.Eng.Now() + duration)
	gen.Stop()
	s.sys.Eng.RunAll()
	capacity := float64(s.cfg.KernelThreads) / s.cfg.ServiceMean.Seconds()
	return LoadResult{
		QPS:       qps,
		Load:      qps / capacity,
		Snapshot:  s.sys.Metrics.Latency.Snapshot(),
		Completed: s.sys.Metrics.Completed,
	}
}
