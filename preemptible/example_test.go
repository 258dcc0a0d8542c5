package preemptible_test

import (
	"fmt"
	"time"

	"repro/preemptible"
)

// The paper's fn_launch / fn_resume / fn_completed loop: a task runs in
// slices under a scheduler-chosen time quantum.
func ExampleRuntime_Launch() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	steps := 0
	fn, err := rt.Launch(func(ctx *preemptible.Ctx) {
		for i := 0; i < 3; i++ {
			steps++
			ctx.Yield() // voluntarily end this slice
		}
	}, time.Second)
	if err != nil {
		panic(err)
	}
	for !fn.Completed() { // fn_completed
		fn.Resume(time.Second) // fn_resume
	}
	fmt.Println("steps:", steps)
	// Output: steps: 3
}

// A Pool schedules many tasks over a bounded worker set with the
// two-level (arrivals-first) discipline.
func ExamplePool() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	pool := preemptible.NewPool(rt, preemptible.PoolConfig{Workers: 2})
	total := 0
	for i := 1; i <= 4; i++ {
		i := i
		pool.SubmitWaitWithOptions(func(ctx *preemptible.Ctx) { total += i }, preemptible.SubmitOptions{}, nil)
	}
	pool.Close()
	fmt.Println("sum:", total)
	// Output: sum: 10
}
