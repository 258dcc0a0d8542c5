package preemptible

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsTasks(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 4, Quantum: time.Millisecond})
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.SubmitWithOptions(func(ctx *Ctx) { done.Add(1) }, SubmitOptions{}, func(time.Duration) { wg.Done() })
	}
	wg.Wait()
	p.Close()
	if done.Load() != 100 {
		t.Fatalf("done = %d", done.Load())
	}
	st := p.Stats()
	if st.Completed != 100 || st.Submitted != 100 {
		t.Fatalf("stats: %+v", st)
	}
	if st.P99 <= 0 || st.Mean <= 0 {
		t.Fatalf("latency stats empty: %+v", st)
	}
}

func TestPoolSubmitWait(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})
	defer p.Close()
	lat, _, _ := p.SubmitWaitWithOptions(func(ctx *Ctx) { time.Sleep(time.Millisecond) }, SubmitOptions{}, nil)
	if lat < time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
}

func TestPoolPreemptsLongTasks(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	// A long task on the single worker...
	start := time.Now()
	p.SubmitWithOptions(func(ctx *Ctx) { spin(ctx, 30*time.Millisecond) }, SubmitOptions{}, func(time.Duration) { wg.Done() })
	// ...must not head-of-line block a short task for its full 30ms.
	var shortLat time.Duration
	wg.Add(1)
	time.Sleep(2 * time.Millisecond)
	p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, func(l time.Duration) { shortLat = l; wg.Done() })
	wg.Wait()
	elapsed := time.Since(start)
	p.Close()
	if shortLat > elapsed/2 {
		t.Fatalf("short task waited %v of %v: HoL blocking not relieved", shortLat, elapsed)
	}
	if p.Stats().Preemptions == 0 {
		t.Fatal("long task never preempted")
	}
}

func TestPoolQuantumControls(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 5 * time.Millisecond})
	defer p.Close()
	if p.Quantum() != 5*time.Millisecond {
		t.Fatal("initial quantum wrong")
	}
	p.SetQuantum(time.Millisecond)
	if p.Quantum() != time.Millisecond {
		t.Fatal("SetQuantum ignored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SetQuantum(0)
}

func TestPoolAdaptiveControllerAdjusts(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{
		Workers: 2,
		Quantum: 10 * time.Millisecond,
		Adaptive: &AdaptiveConfig{
			LHigh: 1e12, LLow: 1e11, // everything is "low load"
			K1: time.Millisecond, K2: time.Millisecond, K3: 5 * time.Millisecond,
			TMin: time.Millisecond, TMax: 50 * time.Millisecond,
			QThreshold: 1 << 30,
			Period:     20 * time.Millisecond,
		},
	})
	defer p.Close()
	// Trickle of short tasks: light-tailed, low load → quantum must rise.
	for i := 0; i < 10; i++ {
		p.SubmitWaitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil)
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.Quantum() <= 10*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("controller never raised the quantum (still %v)", p.Quantum())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolSubmitNilPanics(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SubmitWithOptions(nil, SubmitOptions{}, nil)
}

func TestPoolZeroWorkersPanics(t *testing.T) {
	rt := newRT(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(rt, PoolConfig{Workers: 0})
}

func TestPoolSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	p.Close()
	ran := false
	all := []SubmitOptions{{}, {Class: ClassBE}, {Deadline: time.Now().Add(time.Second)}, {PickupTimeout: time.Second}}
	for _, opts := range all {
		h, err := p.SubmitWithOptions(func(*Ctx) { ran = true }, opts, func(time.Duration) { ran = true })
		if err != ErrClosed || h != nil {
			t.Fatalf("submit %+v after Close: handle %v, err = %v; want nil, ErrClosed", opts, h, err)
		}
	}
	if _, _, err := p.SubmitWaitWithOptions(func(*Ctx) { ran = true }, SubmitOptions{}, nil); err != ErrClosed {
		t.Fatalf("SubmitWaitWithOptions after Close: err = %v, want ErrClosed", err)
	}
	if ran {
		t.Fatal("a refused submission ran its task or done callback")
	}
}

func TestPoolCloseDrainsQueuedWork(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2, Quantum: time.Millisecond})
	var done atomic.Int64
	for i := 0; i < 50; i++ {
		p.SubmitWithOptions(func(ctx *Ctx) { done.Add(1) }, SubmitOptions{}, nil)
	}
	p.Close()
	if done.Load() != 50 {
		t.Fatalf("Close dropped work: %d of 50 done", done.Load())
	}
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 4, Quantum: time.Millisecond})
	var wg sync.WaitGroup
	var done atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var inner sync.WaitGroup
				inner.Add(1)
				p.SubmitWithOptions(func(ctx *Ctx) {
					done.Add(1)
					ctx.Checkpoint()
				}, SubmitOptions{}, func(time.Duration) { inner.Done() })
				inner.Wait()
			}
		}()
	}
	wg.Wait()
	p.Close()
	if done.Load() != 400 {
		t.Fatalf("done = %d", done.Load())
	}
}
