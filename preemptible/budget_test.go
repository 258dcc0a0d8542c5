package preemptible

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestAllocBudgetLaunch: a Launch that completes allocates the Fn it
// returns and nothing else — no goroutine, no channel, no context (5
// before the free list).
func TestAllocBudgetLaunch(t *testing.T) {
	rt := newRT(t)
	task := func(*Ctx) {}
	testutil.AllocBudget(t, "Launch→complete", 1, func() {
		if fn, err := rt.Launch(task, time.Second); err != nil || !fn.Completed() {
			t.Fatalf("Launch: %v", err)
		}
	})
}

// TestAllocBudgetSubmitWait: the pool's synchronous submit+wait recycles
// its record and launches on the worker's spare context (10 before, and
// the issue that introduced the free list allowed 2).
func TestAllocBudgetSubmitWait(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()
	task := func(*Ctx) {}
	opts := SubmitOptions{Deadline: time.Now().Add(time.Hour), Expire: true, PickupTimeout: time.Minute}
	testutil.AllocBudget(t, "SubmitWaitWithOptions", 0, func() {
		if lat, state, err := p.SubmitWaitWithOptions(task, opts, nil); err != nil || lat < 0 || state != TaskCompleted {
			t.Fatalf("SubmitWaitWithOptions: lat=%v state=%v err=%v", lat, state, err)
		}
	})
}

// TestArrivalsFirstWithoutYield: a task submitted while a 50-slice BE
// task is being preempted and resumed on a one-worker pool completes
// before that BE task does — on one processor as on two. The worker
// used to call runtime.Gosched before every resume to make sure of
// this; it holds without (this test passes with and without the call),
// because next() serves the arrival queue before the preempted list and
// a submitter gets a processor at the latest when Go's own 10 ms slice
// preempts the worker↔task hand-off.
func TestArrivalsFirstWithoutYield(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rt := newRT(t)
			p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Second})
			defer p.Close()

			const slices = 50
			var slice atomic.Int64
			begun := make(chan struct{})
			var order atomic.Int64 // completion sequence
			var beDone, lcDone, beSliceAtLC int64
			finished := make(chan struct{}, 2)
			if _, err := p.SubmitWithOptions(func(ctx *Ctx) {
				for i := 0; i < slices; i++ {
					if slice.Add(1) == 3 {
						close(begun)
					}
					for end := time.Now().Add(2 * time.Millisecond); time.Now().Before(end); {
					}
					ctx.Yield() // preempted here, resumed from the preempted list
				}
			}, SubmitOptions{Class: ClassBE}, func(time.Duration) { beDone = order.Add(1); finished <- struct{}{} }); err != nil {
				t.Fatal(err)
			}
			<-begun
			if _, err := p.SubmitWithOptions(func(*Ctx) { beSliceAtLC = slice.Load() }, SubmitOptions{Class: ClassLC},
				func(time.Duration) { lcDone = order.Add(1); finished <- struct{}{} }); err != nil {
				t.Fatal(err)
			}
			<-finished
			<-finished
			if lcDone != 1 || beDone != 2 {
				t.Fatalf("completion order: LC %d, BE %d; want the arrival first", lcDone, beDone)
			}
			if beSliceAtLC >= slices {
				t.Fatalf("the arrival ran after the BE task's last slice (%d)", beSliceAtLC)
			}
			if st := p.Stats(); st.Preemptions < slices {
				t.Fatalf("BE task was preempted %d times, want ≥ %d", st.Preemptions, slices)
			}
		})
	}
}

// TestWinLatsStaysEmptyWithoutController: the Algorithm 1 observation
// window is drained only by the controller, so a pool without one must
// not fill it — it used to grow by 8 bytes per completed task, forever.
func TestWinLatsStaysEmptyWithoutController(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})
	defer p.Close()
	const tasks = 100000
	task := func(*Ctx) {}
	for i := 0; i < tasks; i++ {
		if lat, _, err := p.SubmitWaitWithOptions(task, SubmitOptions{}, nil); err != nil || lat < 0 {
			t.Fatalf("SubmitWaitWithOptions: lat=%v err=%v", lat, err)
		}
	}
	if st := p.Stats(); st.Completed != tasks {
		t.Fatalf("completed %d of %d", st.Completed, tasks)
	}
	p.mu.Lock()
	n, c := len(p.winLats), cap(p.winLats)
	p.mu.Unlock()
	if n != 0 || c != 0 {
		t.Fatalf("controller-less pool kept a latency window: len %d cap %d after %d tasks", n, c, tasks)
	}
}

// TestWinLatsFeedsController: with a controller configured, the window
// it drains each period holds every completed task's latency and the
// arrival count.
func TestWinLatsFeedsController(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Adaptive: &AdaptiveConfig{
		LHigh: 1e12, LLow: 1e11,
		K1: time.Millisecond, K2: time.Millisecond, K3: time.Millisecond,
		TMin: time.Millisecond, TMax: 50 * time.Millisecond,
		QThreshold: 1 << 30,
		Period:     time.Hour, // the window is read here, before the controller drains it
	}})
	defer p.Close()
	const tasks = 50
	var lats []time.Duration
	for i := 0; i < tasks; i++ {
		lat, _, err := p.SubmitWaitWithOptions(func(*Ctx) {}, SubmitOptions{}, nil)
		if err != nil || lat < 0 {
			t.Fatalf("SubmitWaitWithOptions: lat=%v err=%v", lat, err)
		}
		lats = append(lats, lat)
	}
	p.mu.Lock()
	win, arr := append([]float64(nil), p.winLats...), p.winArr
	p.mu.Unlock()
	if len(win) != tasks || arr != tasks {
		t.Fatalf("window holds %d latencies and %d arrivals, want %d and %d", len(win), arr, tasks, tasks)
	}
	for i, l := range lats {
		if win[i] != float64(l) {
			t.Fatalf("window[%d] = %v, task reported %v", i, win[i], float64(l))
		}
	}
}
