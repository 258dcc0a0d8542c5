package preemptible

import (
	"sync"
	"testing"
	"time"
)

// TestSubmitClassPerClassStats: completions land in the right class
// bucket and the zero SubmitOptions submits ClassLC.
func TestSubmitClassPerClassStats(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})
	defer p.Close()

	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Class: ClassBE}, func(time.Duration) { wg.Done() })
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, func(time.Duration) { wg.Done() })
	}
	wg.Wait()
	st := p.Stats()
	if st.PerClass[ClassBE].Submitted != 5 || st.PerClass[ClassBE].Completed != 5 {
		t.Fatalf("BE stats %+v", st.PerClass[ClassBE])
	}
	if st.PerClass[ClassLC].Submitted != 3 || st.PerClass[ClassLC].Completed != 3 {
		t.Fatalf("LC stats %+v", st.PerClass[ClassLC])
	}
	if st.Submitted != 8 || st.Completed != 8 {
		t.Fatalf("aggregate stats %+v", st)
	}
}

// TestEvictClassFIFO: with the single worker wedged, queued BE is
// evicted (ShedLatency, TaskShed) while queued LC survives and runs.
func TestEvictClassFIFO(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) { close(started); <-gate }, SubmitOptions{}, nil)
	<-started

	const nBE, nLC = 4, 3
	beCh := make(chan time.Duration, nBE)
	lcCh := make(chan time.Duration, nLC)
	var beHandles []*TaskHandle
	for i := 0; i < nBE; i++ {
		h, _ := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Class: ClassBE}, func(l time.Duration) { beCh <- l })
		beHandles = append(beHandles, h)
	}
	for i := 0; i < nLC; i++ {
		p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Class: ClassLC}, func(l time.Duration) { lcCh <- l })
	}

	if n := p.EvictClass(ClassBE); n != nBE {
		t.Fatalf("EvictClass evicted %d, want %d", n, nBE)
	}
	for i := 0; i < nBE; i++ {
		if got := <-beCh; got != ShedLatency {
			t.Fatalf("evicted BE latency %v, want ShedLatency", got)
		}
	}
	for _, h := range beHandles {
		if got := h.State(); got != TaskShed {
			t.Fatalf("evicted BE state %v, want shed", got)
		}
	}
	// Double eviction finds nothing.
	if n := p.EvictClass(ClassBE); n != 0 {
		t.Fatalf("second EvictClass evicted %d", n)
	}

	close(gate)
	for i := 0; i < nLC; i++ {
		if got := <-lcCh; got < 0 {
			t.Fatalf("surviving LC latency %v", got)
		}
	}
	st := p.Stats()
	if st.PerClass[ClassBE].Shed != nBE || st.PerClass[ClassBE].Completed != 0 {
		t.Fatalf("BE stats after eviction: %+v", st.PerClass[ClassBE])
	}
	if st.PerClass[ClassLC].Completed != nLC+1 {
		t.Fatalf("LC stats after eviction: %+v", st.PerClass[ClassLC])
	}
}

// TestEvictClassEDF: eviction tombstones queued BE in the EDF heap
// without breaking deadline order for the surviving LC work.
func TestEvictClassEDF(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Discipline: EDF})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) { close(started); <-gate }, SubmitOptions{}, nil)
	<-started

	now := time.Now()
	beCh := make(chan time.Duration, 2)
	var order []int
	var orderMu sync.Mutex
	lcDone := make(chan struct{}, 2)
	mk := func(id int) Task {
		return func(ctx *Ctx) {
			orderMu.Lock()
			order = append(order, id)
			orderMu.Unlock()
		}
	}
	p.SubmitWithOptions(mk(100), SubmitOptions{Class: ClassBE, Deadline: now.Add(time.Millisecond)},
		func(l time.Duration) { beCh <- l })
	p.SubmitWithOptions(mk(2), SubmitOptions{Class: ClassLC, Deadline: now.Add(20 * time.Millisecond)},
		func(time.Duration) { lcDone <- struct{}{} })
	p.SubmitWithOptions(mk(101), SubmitOptions{Class: ClassBE, Deadline: now.Add(2 * time.Millisecond)},
		func(l time.Duration) { beCh <- l })
	p.SubmitWithOptions(mk(1), SubmitOptions{Class: ClassLC, Deadline: now.Add(10 * time.Millisecond)},
		func(time.Duration) { lcDone <- struct{}{} })

	if n := p.EvictClass(ClassBE); n != 2 {
		t.Fatalf("EvictClass evicted %d, want 2", n)
	}
	for i := 0; i < 2; i++ {
		if got := <-beCh; got != ShedLatency {
			t.Fatalf("evicted BE latency %v", got)
		}
	}
	close(gate)
	<-lcDone
	<-lcDone
	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("surviving LC ran in order %v, want [1 2]", order)
	}
}

// TestPerClassConservation: under a concurrent mix of completions,
// evictions, and cancels, per-class conservation holds exactly once the
// pool drains, and the aggregate is the classes' sum.
func TestPerClassConservation(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 2})

	var wg sync.WaitGroup
	track := func() func(time.Duration) {
		wg.Add(1)
		return func(time.Duration) { wg.Done() }
	}
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		started := make(chan struct{})
		p.SubmitWithOptions(func(ctx *Ctx) { close(started); <-gate; ctx.Checkpoint() }, SubmitOptions{}, track())
		<-started
	}
	var handles []*TaskHandle
	for i := 0; i < 20; i++ {
		class := ClassLC
		if i%2 == 0 {
			class = ClassBE
		}
		h, _ := p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Class: class}, track())
		handles = append(handles, h)
	}
	handles[3].Cancel() // queued LC cancel
	p.EvictClass(ClassBE)
	p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{Class: ClassBE}, track()) // BE after the eviction runs
	close(gate)
	wg.Wait()
	p.Close()

	st := p.Stats()
	for c := 0; c < NumClasses; c++ {
		cs := st.PerClass[c]
		if cs.Settled() != cs.Submitted {
			t.Fatalf("class %v not conserved: %+v", Class(c), cs)
		}
	}
	var agg ClassStats
	for c := 0; c < NumClasses; c++ {
		agg.Submitted += st.PerClass[c].Submitted
		agg.Completed += st.PerClass[c].Completed
		agg.Shed += st.PerClass[c].Shed
		agg.CancelledQueued += st.PerClass[c].CancelledQueued
		agg.CancelledExecuting += st.PerClass[c].CancelledExecuting
	}
	if agg.Submitted != st.Submitted || agg.Completed != st.Completed || agg.Shed != st.Shed ||
		agg.CancelledQueued != st.CancelledQueued || agg.CancelledExecuting != st.CancelledExecuting {
		t.Fatalf("per-class totals disagree with aggregates:\nper-class %+v\naggregate %+v", agg, st)
	}
}

// TestOldestWait: the queue-delay signal sees the head-of-line arrival
// and goes back to zero when the queue drains.
func TestOldestWait(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1})
	defer p.Close()

	if got := p.OldestWait(time.Now()); got != 0 {
		t.Fatalf("OldestWait on idle pool = %v", got)
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	p.SubmitWithOptions(func(ctx *Ctx) { close(started); <-gate }, SubmitOptions{}, nil)
	<-started
	done := make(chan time.Duration, 1)
	p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, func(l time.Duration) { done <- l })
	time.Sleep(5 * time.Millisecond)
	if got := p.OldestWait(time.Now()); got < 2*time.Millisecond {
		t.Fatalf("OldestWait with queued work = %v, want ≥ 2ms", got)
	}
	close(gate)
	<-done
	// The queue may briefly contain nothing but already-popped work.
	deadline := time.Now().Add(time.Second)
	for p.OldestWait(time.Now()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("OldestWait never returned to 0 after drain")
		}
		time.Sleep(time.Millisecond)
	}
}
