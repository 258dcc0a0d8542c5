// Package sched defines the request abstraction and the queue
// disciplines (scheduling policies) that run on top of LibPreemptible.
// The separation mirrors the paper's "separation of mechanism and
// policy" design goal (§III-C): the core runtime provides preemption
// mechanisms; policies are pluggable values satisfying Policy.
package sched

import (
	"repro/internal/fcontext"
	"repro/internal/sim"
)

// Class labels a request's service class in colocation experiments.
const (
	// ClassLC is a latency-critical request (e.g. MICA KV ops).
	ClassLC = 0
	// ClassBE is a best-effort request (e.g. zlib compression blocks).
	ClassBE = 1
)

// Request is one unit of work flowing through a scheduling system.
type Request struct {
	ID      uint64
	Class   int
	Arrival sim.Time
	// Service is the total CPU demand; Remaining is what is left after
	// preemptions.
	Service   sim.Time
	Remaining sim.Time
	// Start is the first time the request ran (-1 before then); Finish
	// is its completion time.
	Start  sim.Time
	Finish sim.Time
	// Deadline is the wall-clock SLO deadline, if the policy uses one
	// (0 = none).
	Deadline sim.Time
	// QuantumOverride, when positive, replaces the system-wide time
	// quantum for this request (per-request deadlines, §III-B).
	QuantumOverride sim.Time
	// Preemptions counts how many times the request was preempted.
	Preemptions int
	// Cancelled marks a request dropped by deadline cancellation
	// (§III-B) instead of completing.
	Cancelled bool
	// Ctx is the user-level context attached while the request is
	// in-flight.
	Ctx *fcontext.Context
}

// NewRequest builds a request with the bookkeeping fields initialized.
func NewRequest(id uint64, class int, arrival, service sim.Time) *Request {
	return &Request{
		ID:        id,
		Class:     class,
		Arrival:   arrival,
		Service:   service,
		Remaining: service,
		Start:     -1,
		Finish:    -1,
	}
}

// Latency reports the sojourn time (finish - arrival); it panics on an
// unfinished request, which is a measurement bug.
func (r *Request) Latency() sim.Time {
	if r.Finish < 0 {
		panic("sched: Latency of unfinished request")
	}
	return r.Finish - r.Arrival
}

// Started reports whether the request has run at least once.
func (r *Request) Started() bool { return r.Start >= 0 }

// Done reports whether the request completed.
func (r *Request) Done() bool { return r.Finish >= 0 }

// Policy is a centralized queue discipline. Enqueue admits a new
// arrival, Requeue re-admits a preempted request, Next picks the next
// request to run (nil when empty).
//
// Policies are not safe for concurrent use; the simulator is
// single-threaded and the live library serializes access in its
// scheduler loop.
type Policy interface {
	Name() string
	Enqueue(r *Request)
	Requeue(r *Request)
	Next() *Request
	Len() int
}
