// Package zygos models a ZygOS-style dataplane baseline (SOSP'17, as
// discussed in the paper's related work): RSS-partitioned per-worker
// queues with run-to-completion execution and work stealing from idle
// workers. ZygOS showed that stealing is necessary even at µs scales —
// but without preemption, long requests still head-of-line block their
// core, which is the gap LibPreemptible closes.
//
// Unlike the Shinjuku and Libinger baselines this one keeps its own
// loop instead of running on core.System, because it shares none of
// core's scheduling structure: requests are placed by RSS hash, not by a
// dispatcher; there is no dispatcher core at all; an idle worker steals
// from the tail of the longest peer queue; and nothing is preempted.
// Folding it into core would make core branch on its caller.
package zygos

import (
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterizes a ZygOS instance.
type Config struct {
	// Workers is the worker-core count.
	Workers int
	// Seed fixes the run.
	Seed uint64
}

// Metrics aggregates measurements.
type Metrics struct {
	Submitted uint64
	Completed uint64
	Steals    uint64
	Latency   *stats.Histogram
}

// System is a running ZygOS instance.
type System struct {
	Eng *sim.Engine
	M   *hw.Machine

	workers []*worker

	inflight uint64
	Metrics  Metrics
}

type worker struct {
	id    int
	core  *hw.Core
	queue []*sched.Request
	head  int
	busy  bool
}

func (w *worker) qlen() int { return len(w.queue) - w.head }

func (w *worker) pop() *sched.Request {
	if w.head >= len(w.queue) {
		return nil
	}
	r := w.queue[w.head]
	w.queue[w.head] = nil
	w.head++
	if w.head > 64 && w.head*2 >= len(w.queue) {
		w.queue = append([]*sched.Request(nil), w.queue[w.head:]...)
		w.head = 0
	}
	return r
}

// popTail steals from the far end (classic work stealing: thieves take
// the coldest work).
func (w *worker) popTail() *sched.Request {
	if w.head >= len(w.queue) {
		return nil
	}
	last := len(w.queue) - 1
	r := w.queue[last]
	w.queue[last] = nil
	w.queue = w.queue[:last]
	return r
}

// New builds a ZygOS system.
func New(cfg Config) *System {
	if cfg.Workers <= 0 {
		panic("zygos: need at least one worker")
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed ^ 0x7a79676f73)
	m := hw.NewMachine(eng, cfg.Workers, hw.DefaultCosts(), rng)
	s := &System{Eng: eng, M: m, Metrics: Metrics{Latency: stats.NewHistogram()}}
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, &worker{id: i, core: m.Core(i)})
	}
	return s
}

// Workers reports the worker count.
func (s *System) Workers() int { return len(s.workers) }

// InFlight reports submitted-but-incomplete requests.
func (s *System) InFlight() uint64 { return s.inflight }

// Throughput reports completions per second of virtual time.
func (s *System) Throughput() float64 {
	now := s.Eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.Metrics.Completed) / now.Seconds()
}

// Submit hashes the request to a worker queue (RSS) and runs it to
// completion there, unless stolen first.
func (s *System) Submit(r *sched.Request) {
	if r == nil {
		panic("zygos: Submit(nil)")
	}
	s.Metrics.Submitted++
	s.inflight++
	w := s.workers[int(rssMix(r.ID)%uint64(len(s.workers)))]
	w.queue = append(w.queue, r)
	if !w.busy {
		s.runNext(w)
	}
}

func rssMix(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	return id
}

// runNext picks work for w: own queue first, then steal from the
// longest peer queue.
func (s *System) runNext(w *worker) {
	r := w.pop()
	if r == nil {
		var victim *worker
		max := 0
		for _, v := range s.workers {
			if l := v.qlen(); l > max {
				max = l
				victim = v
			}
		}
		if victim != nil {
			r = victim.popTail()
			if r != nil {
				s.Metrics.Steals++
			}
		}
	}
	if r == nil {
		w.busy = false
		return
	}
	w.busy = true
	overhead := s.M.Costs.CtxAlloc
	if !r.Started() {
		r.Start = s.Eng.Now() + overhead
	}
	w.core.Start(overhead+r.Remaining, func() {
		r.Remaining = 0
		r.Finish = s.Eng.Now()
		s.inflight--
		s.Metrics.Completed++
		s.Metrics.Latency.Record(int64(r.Latency()))
		s.runNext(w)
	})
}
