package preemptible

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The paper's compatibility claim (§I, §III-C): applications using
// LibPreemptible coexist with traditional applications on the same
// host. The live analog: a preemptible pool keeps enforcing quanta and
// completing work while ordinary goroutines churn alongside it.
func TestCoexistsWithOrdinaryGoroutines(t *testing.T) {
	rt := newRT(t)
	p := NewPool(rt, PoolConfig{Workers: 1, Quantum: 2 * time.Millisecond})
	defer p.Close()

	// Traditional application: plain goroutines doing bursty work and
	// sleeping, unaware of the preemptible runtime.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	var churned atomic.Uint64
	for g := 0; g < 3; g++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			buf := make([]byte, 1024)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range buf {
					buf[i] = byte(i)
				}
				churned.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	// Preemptible side: long tasks that must still be preempted and
	// short tasks that must still finish promptly.
	var wg sync.WaitGroup
	wg.Add(1)
	p.SubmitWithOptions(func(ctx *Ctx) { spin(ctx, 25*time.Millisecond) }, SubmitOptions{}, func(time.Duration) { wg.Done() })
	time.Sleep(3 * time.Millisecond)
	var shortLat time.Duration
	wg.Add(1)
	p.SubmitWithOptions(func(ctx *Ctx) {}, SubmitOptions{}, func(l time.Duration) { shortLat = l; wg.Done() })
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if p.Stats().Preemptions == 0 {
		t.Fatal("quanta not enforced while coexisting")
	}
	if shortLat > 15*time.Millisecond {
		t.Fatalf("short task latency %v under coexistence", shortLat)
	}
	if churned.Load() == 0 {
		t.Fatal("traditional goroutines starved entirely")
	}
}
