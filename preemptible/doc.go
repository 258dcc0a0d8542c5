// Package preemptible is a Go implementation of the LibPreemptible API
// (HPCA 2024): a preemptive user-level task runtime with fine-grained,
// dynamically adjustable time quanta and user-defined scheduling
// policies.
//
// # Substitution for UINTR
//
// The original library preempts worker threads asynchronously with
// Intel user interrupts (UINTR) at 3 µs granularity. A Go library
// cannot interrupt a goroutine asynchronously — the Go runtime owns
// scheduling — so this implementation substitutes the delivery
// mechanism while keeping the architecture. Launch and Resume arm a
// per-task deadline word; each safepoint (a Ctx.Checkpoint call, the
// analog of a compiler preemption point) reads the clock, and once the
// deadline has passed the task yields back to its scheduler with its
// state saved. That clock read is the one delivery path: there is no
// timer goroutine, because a flag it raised would only be seen at the
// same safepoint. Granularity is bounded by safepoint density instead
// of 3 µs, and a task that reaches no safepoint runs to completion.
// Every other part of the paper's design — deadline arming, two-level
// scheduling, preempted-task lists, the adaptive quantum controller —
// carries over unchanged. The simulation packages in this repository
// model LibUtimer and UINTR delivery and reproduce the µs-scale
// results; this package is the adoptable library.
//
// # Core API
//
// Runtime hosts tasks and their contexts. Fn is a preemptible
// function: Launch starts it and returns when it completes or its time
// slice expires (fn_launch); Resume continues a preempted Fn
// (fn_resume); Completed reports whether a reschedule is needed
// (fn_completed). A round-robin scheduler over N tasks — the paper's
// Fig. 7 example — is:
//
//	rt, _ := preemptible.New(preemptible.Config{})
//	defer rt.Close()
//	fns := make([]*preemptible.Fn, 0, len(tasks))
//	for _, t := range tasks {
//		fn, err := rt.Launch(t, quantum)
//		if err != nil {
//			return err // runtime closed
//		}
//		fns = append(fns, fn)
//	}
//	for live := len(fns); live > 0; {
//		for _, fn := range fns {
//			if !fn.Completed() {
//				fn.Resume(quantum)
//				if fn.Completed() {
//					live--
//				}
//			}
//		}
//	}
//
// A task's context — the goroutine it runs on, the channels that hand
// control back and forth, the deadline word its safepoints read — is
// not created per Launch: like the paper's library, the
// Runtime keeps a free list of idle contexts, a finished task's context
// is parked and serves a later Launch, and in steady state a Launch
// allocates only the Fn it returns. A Fn keeps reporting its own
// task's outcome after its context has moved on; a Task must not keep
// its *Ctx past its own return.
//
// Pool layers the paper's two-level scheduler on top: a dispatch order
// over fresh arrivals and preempted functions (FIFO arrivals-first, or
// EDF) feeding worker goroutines, per-class counters and a latency
// summary, and optionally the Algorithm 1 adaptive quantum controller.
// SubmitWithOptions submits a task and returns a handle;
// SubmitWaitWithOptions submits one and waits for its outcome. A ClassBE
// task runs on a context of its own kind, whose goroutine holds an OS
// thread of lowered priority (nice 19 on Linux) for life, so the kernel
// hands the processor to latency-critical threads first.
package preemptible
