package shinjuku_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/shinjuku"
	"repro/internal/sim"
)

// decisionCost is what the dispatcher core pays for one scheduling
// decision (pick a request, write it to the worker's slot). It is a
// constant of the Shinjuku design, so the test states it rather than
// reading it from the package.
const decisionCost = 120 * sim.Nanosecond

// TestRunToCompletionCostsExact pins the path of one request that is
// never preempted: the dispatcher takes it in (DispatchCost), decides
// for the idle worker (decisionCost), and the worker attaches a fresh
// context (CtxAlloc) before running the service time. Nothing else may
// land on the critical path.
func TestRunToCompletionCostsExact(t *testing.T) {
	const service = 10 * sim.Microsecond
	s := shinjuku.New(shinjuku.Config{Workers: 1, Quantum: 50 * sim.Microsecond, Seed: 11})
	r := sched.NewRequest(1, sched.ClassLC, 0, service)
	s.Submit(r)
	s.Eng.RunAll()
	if !r.Done() {
		t.Fatal("request did not complete")
	}
	c := s.M.Costs
	if want := c.DispatchCost + decisionCost + c.CtxAlloc + service; r.Latency() != want {
		t.Fatalf("latency = %v, want DispatchCost+decision+CtxAlloc+service = %v", r.Latency(), want)
	}
	if r.Preemptions != 0 || s.Metrics.IPISends != 0 {
		t.Fatalf("preemptions = %d, IPI sends = %d; want 0, 0", r.Preemptions, s.Metrics.IPISends)
	}
}

// TestDispatcherPaysForEveryDecision pins the centralization Shinjuku
// is measured for: the dispatcher core's busy time is exactly one
// DispatchCost per arrival, one decisionCost per scheduling decision
// (the first assignment, one per preemption, one at completion) and one
// IPISend per posted interrupt — no more, no less.
func TestDispatcherPaysForEveryDecision(t *testing.T) {
	s := shinjuku.New(shinjuku.Config{Workers: 1, Quantum: 50 * sim.Microsecond, Seed: 12})
	r := sched.NewRequest(1, sched.ClassLC, 0, 80*sim.Microsecond)
	s.Submit(r)
	s.Eng.RunAll()
	if !r.Done() || r.Preemptions != 1 || s.Metrics.IPISends != 1 || s.Metrics.Spurious != 0 {
		t.Fatalf("done=%v preemptions=%d sends=%d spurious=%d; want one clean preemption",
			r.Done(), r.Preemptions, s.Metrics.IPISends, s.Metrics.Spurious)
	}
	c := s.M.Costs
	decisions := sim.Time(r.Preemptions + 2)
	want := c.DispatchCost + decisions*decisionCost + sim.Time(s.Metrics.IPISends)*c.IPISend
	if got := s.M.Core(s.Workers()).BusyTime(); got != want {
		t.Fatalf("dispatcher busy = %v, want arrivals·DispatchCost + decisions·%v + sends·IPISend = %v",
			got, decisionCost, want)
	}
}
