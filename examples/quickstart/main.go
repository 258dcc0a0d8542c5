// Quickstart: the paper's Fig. 7 example — a simple round-robin
// scheduler over N static user-level threads, built on the public
// preemptible API (fn_launch / fn_resume / fn_completed).
//
// Each task counts to a large number, checkpointing as it goes; the
// scheduler gives each a small time quantum and cycles until all
// complete. The output shows the interleaving: every task makes
// progress long before the first one finishes, which is exactly what
// preemptive scheduling buys over run-to-completion.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/preemptible"
)

const (
	numThreads = 4
	quantum    = 2 * time.Millisecond
	workUnits  = 400000
)

func main() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	progress := make([]int, numThreads)

	// fn_launch: each function starts immediately and returns control
	// at its first quantum expiry.
	fns := make([]*preemptible.Fn, numThreads)
	for i := 0; i < numThreads; i++ {
		i := i
		fn, err := rt.Launch(func(ctx *preemptible.Ctx) {
			for u := 0; u < workUnits; u++ {
				progress[i]++
				ctx.Checkpoint() // safepoint: preemption is observed here
			}
		}, quantum)
		if err != nil {
			log.Fatal(err)
		}
		fns[i] = fn
	}

	// Round-robin scheduler: resume each unfinished function for one
	// quantum until all are done (Fig. 7).
	round := 0
	for live := countLive(fns); live > 0; round++ {
		for i, fn := range fns {
			if fn.Completed() {
				continue
			}
			fn.Resume(quantum) // fn_resume
			fmt.Printf("round %2d: task %d at %6.2f%% (preempted %d times)\n",
				round, i, 100*float64(progress[i])/workUnits, fn.Preemptions)
		}
		live = countLive(fns)
	}

	fmt.Printf("\nall %d tasks complete after %d rounds; %d quantum-expiry preemptions taken\n",
		numThreads, round, rt.Preemptions())
}

func countLive(fns []*preemptible.Fn) int {
	n := 0
	for _, fn := range fns {
		if !fn.Completed() { // fn_completed
			n++
		}
	}
	return n
}
