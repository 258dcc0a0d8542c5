package preemptible

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEDFOrdersByDeadline(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 50 * time.Millisecond, Discipline: EDF})
	defer p.Close()

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup

	// Occupy the worker so the queue builds up deterministically.
	gate := make(chan struct{})
	wg.Add(1)
	p.SubmitWithOptions(func(ctx *Ctx) { <-gate }, SubmitOptions{}, func(time.Duration) { wg.Done() })
	time.Sleep(5 * time.Millisecond)

	now := time.Now()
	submit := func(name string, deadline time.Time) {
		wg.Add(1)
		p.SubmitWithOptions(func(ctx *Ctx) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}, SubmitOptions{Deadline: deadline}, func(time.Duration) { wg.Done() })
	}
	submit("late", now.Add(300*time.Millisecond))
	submit("none", time.Time{}) // deadline-free sorts last
	submit("early", now.Add(10*time.Millisecond))
	submit("mid", now.Add(100*time.Millisecond))
	close(gate)
	wg.Wait()

	want := []string{"early", "mid", "late", "none"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEDFPreemptedKeepsDeadline(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: time.Millisecond, Discipline: EDF})
	defer p.Close()

	var wg sync.WaitGroup
	var tightDone, looseDone atomic.Int64

	// A long task with a TIGHT deadline and one with a LOOSE deadline:
	// after both get preempted, the tight one must keep winning the
	// worker until it finishes.
	now := time.Now()
	wg.Add(2)
	p.SubmitWithOptions(func(ctx *Ctx) {
		spin(ctx, 15*time.Millisecond)
	}, SubmitOptions{Deadline: now.Add(20 * time.Millisecond)}, func(time.Duration) {
		tightDone.Store(time.Now().UnixNano())
		wg.Done()
	})
	p.SubmitWithOptions(func(ctx *Ctx) {
		spin(ctx, 15*time.Millisecond)
	}, SubmitOptions{Deadline: now.Add(10 * time.Second)}, func(time.Duration) {
		looseDone.Store(time.Now().UnixNano())
		wg.Done()
	})
	wg.Wait()
	if tightDone.Load() >= looseDone.Load() {
		t.Fatal("tight-deadline task finished after loose-deadline task under EDF")
	}
	if p.Stats().Preemptions == 0 {
		t.Fatal("long tasks never preempted")
	}
}

func TestEDFSubmitPlainGoesDeadlineFree(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 10 * time.Millisecond, Discipline: EDF})
	defer p.Close()
	// A submission without a deadline is valid on an EDF pool: it sorts last.
	lat, _, _ := p.SubmitWaitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, nil)
	if lat <= 0 {
		t.Fatal("no latency recorded")
	}
	if p.Stats().Completed != 1 {
		t.Fatal("completion lost")
	}
}

func TestSubmitDeadlineNilPanics(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SubmitWithOptions(nil, SubmitOptions{Deadline: time.Now()}, nil)
}

func TestFIFOPoolAcceptsDeadlines(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()
	done := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Deadline: time.Now().Add(time.Second)},
		func(time.Duration) { close(done) })
	<-done
}
