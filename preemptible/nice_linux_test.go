package preemptible

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/testutil"
)

// threadNice reads the nice value of the calling goroutine's OS thread,
// by its tid. The raw getpriority call returns 20 − nice.
func threadNice() (int, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, syscall.Gettid())
	return 20 - prio, err
}

// TestBEContextsRunNiced pushes a seeded mix of LC and BE tasks through
// a 2-worker pool — tasks that complete, are preempted and resumed 1–5
// times, are cancelled while they bounce through the preempted list, or
// panic — and reads the thread's nice value at the start of every slice:
// each BE slice must run at nice 19 and each LC slice at the nice the
// process started with. After Close nothing may be left running. It
// fails when a BE task is launched on a worker's LC spare (that slice
// reads the base nice) and when a BE context's goroutine does not lock
// its thread (the thread it niced goes back to Go's pool and serves LC
// slices, and the BE task's later slices run on other threads).
func TestBEContextsRunNiced(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	base, err := threadNice()
	if err != nil {
		t.Fatal(err)
	}
	if base == beNice {
		t.Skipf("the process already runs at nice %d: the two kinds of thread look alike", beNice)
	}
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p := NewPool(rt, PoolConfig{Workers: 2, Quantum: time.Second})
	defer p.Close()

	const (
		batches   = 40
		batchSize = 16 // bounds the BE contexts, and so the threads, alive at once
	)
	var slices [NumClasses]atomic.Int64
	check := func(class Class) {
		nice, err := threadNice()
		if err != nil {
			t.Errorf("getpriority: %v", err)
			return
		}
		want := base
		if class == ClassBE {
			want = beNice
		}
		if nice != want {
			t.Errorf("%v slice ran at nice %d, want %d", class, nice, want)
		}
		slices[class].Add(1)
	}
	var want [NumClasses]ClassStats
	rng := rand.New(rand.NewSource(27))
	for b := 0; b < batches; b++ {
		var settled sync.WaitGroup
		for i := 0; i < batchSize; i++ {
			class := Class(rng.Intn(NumClasses))
			yields := 1 + rng.Intn(5)
			w := &want[class]
			w.Submitted++
			var task Task
			var started chan struct{}
			switch rng.Intn(4) {
			case 0:
				w.Completed++
				task = func(*Ctx) { check(class) }
			case 1:
				w.Completed++
				task = func(ctx *Ctx) {
					check(class)
					for j := 0; j < yields; j++ {
						ctx.Yield()
						check(class)
					}
				}
			case 2:
				w.CancelledExecuting++
				started = make(chan struct{})
				task = func(ctx *Ctx) {
					check(class)
					close(started)
					for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
						ctx.Yield() // unwinds here once cancelled
						check(class)
					}
					t.Errorf("%v task was never unwound", class)
				}
			default:
				w.Failed++
				task = func(ctx *Ctx) {
					check(class)
					for j := 0; j < yields; j++ {
						ctx.Yield()
						check(class)
					}
					panic("boom")
				}
			}
			settled.Add(1)
			h, err := p.SubmitWithOptions(task, SubmitOptions{Class: class}, func(time.Duration) { settled.Done() })
			if err != nil {
				t.Fatal(err)
			}
			if started != nil {
				go func() {
					<-started
					h.Cancel()
				}()
			}
		}
		settled.Wait()
	}
	st := p.Stats()
	for c := range want {
		if st.PerClass[c] != want[c] {
			t.Fatalf("class %v counters\n got %+v\nwant %+v", Class(c), st.PerClass[c], want[c])
		}
		if slices[c].Load() < batches*batchSize/4 {
			t.Fatalf("only %d %v slices checked", slices[c].Load(), Class(c))
		}
	}
}
