package preemptible

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

func newRT(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// spin burns CPU for roughly d, checkpointing frequently.
func spin(ctx *Ctx, d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 50; i++ {
			_ = i * i
		}
		ctx.Checkpoint()
	}
}

func TestLaunchRunsToCompletion(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rt := newRT(t)
	ran := false
	fn, err := rt.Launch(func(ctx *Ctx) { ran = true }, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run before Launch returned")
	}
	if !fn.Completed() || fn.State() != StateCompleted {
		t.Fatal("Fn not completed")
	}
	if fn.Preemptions != 0 {
		t.Fatal("short task was preempted")
	}
	if n := len(rt.free[ClassLC]); n != 1 {
		t.Fatalf("%d contexts parked after one Launch, want its one context", n)
	}
}

func TestQuantumExpiryPreempts(t *testing.T) {
	rt := newRT(t)
	fn, err := rt.Launch(func(ctx *Ctx) { spin(ctx, 20*time.Millisecond) }, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Completed() {
		t.Fatal("20ms task completed within 1ms quantum")
	}
	if fn.State() != StatePreempted {
		t.Fatalf("state = %v", fn.State())
	}
	resumes := 0
	for !fn.Completed() {
		fn.Resume(5 * time.Millisecond)
		resumes++
		if resumes > 100 {
			t.Fatal("task never completed")
		}
	}
	if fn.Preemptions < 2 {
		t.Fatalf("preemptions = %d, want several", fn.Preemptions)
	}
	if rt.Preemptions() == 0 {
		t.Fatal("runtime preemption counter never moved")
	}
}

func TestVoluntaryYield(t *testing.T) {
	rt := newRT(t)
	step := 0
	fn, err := rt.Launch(func(ctx *Ctx) {
		step = 1
		ctx.Yield()
		step = 2
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Completed() || step != 1 {
		t.Fatalf("yield did not return control: step=%d completed=%v", step, fn.Completed())
	}
	fn.Resume(time.Second)
	if !fn.Completed() || step != 2 {
		t.Fatal("resume after yield failed")
	}
}

func TestResumeCompletedPanics(t *testing.T) {
	rt := newRT(t)
	fn, _ := rt.Launch(func(ctx *Ctx) {}, time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn.Resume(time.Second)
}

func TestLaunchNilTaskPanics(t *testing.T) {
	rt := newRT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Launch(nil, 0) //nolint:errcheck
}

func TestLaunchAfterClose(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.Launch(func(*Ctx) {}, 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCtxObservability(t *testing.T) {
	rt := newRT(t)
	var sawDeadline atomic.Bool
	fn, _ := rt.Launch(func(ctx *Ctx) {
		if !ctx.Deadline().IsZero() {
			sawDeadline.Store(true)
		}
		ctx.Checkpoint()
	}, time.Second)
	if !fn.Completed() {
		t.Fatal("not completed")
	}
	if !sawDeadline.Load() {
		t.Fatal("deadline word not armed during execution")
	}
	if fn.Ctx().Checkpoints() == 0 {
		t.Fatal("checkpoint counter broken")
	}
	if fn.Ctx().Deadline() != (time.Time{}) {
		t.Fatal("deadline not cleared at completion")
	}
}

func TestManyFnsInterleaved(t *testing.T) {
	rt := newRT(t)
	const n = 16
	var fns []*Fn
	var counters [n]int
	for i := 0; i < n; i++ {
		i := i
		fn, err := rt.Launch(func(ctx *Ctx) {
			for k := 0; k < 3; k++ {
				counters[i]++
				ctx.Yield()
			}
		}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	// Round-robin until all done (the Fig. 7 scheduler).
	for live := n; live > 0; {
		for _, fn := range fns {
			if !fn.Completed() {
				fn.Resume(time.Second)
				if fn.Completed() {
					live--
				}
			}
		}
	}
	for i, c := range counters {
		if c != 3 {
			t.Fatalf("task %d ran %d rounds", i, c)
		}
	}
}

func TestFnStateString(t *testing.T) {
	for _, s := range []FnState{StatePreempted, StateRunning, StateCompleted, FnState(9)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}
