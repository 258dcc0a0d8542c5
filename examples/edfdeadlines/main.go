// edfdeadlines: the §III-B deadline abstraction live — tasks carry SLO
// deadlines and the pool's EDF discipline orders execution by them,
// compared against deadline-blind FIFO on the same task mix.
//
// The mix interleaves urgent short tasks (tight deadlines) with bulky
// tasks (loose deadlines). Under FIFO the urgent tasks queue behind
// whatever arrived first; under EDF they overtake, and the deadline hit
// rate jumps.
//
// Run: go run ./examples/edfdeadlines
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/preemptible"
)

const (
	urgentCount = 120
	bulkyCount  = 12
	urgentSLO   = 2 * time.Millisecond
	urgentWork  = 200 * time.Microsecond
	bulkyWork   = 8 * time.Millisecond
	poolQuantum = 500 * time.Microsecond
)

func main() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	for _, d := range []preemptible.Discipline{preemptible.FIFO, preemptible.EDF} {
		hit, total := run(rt, d)
		name := "FIFO"
		if d == preemptible.EDF {
			name = "EDF "
		}
		fmt.Printf("%s: %3d/%d urgent tasks met their %v deadline (%.0f%%)\n",
			name, hit, total, urgentSLO, 100*float64(hit)/float64(total))
	}
}

func run(rt *preemptible.Runtime, d preemptible.Discipline) (hit, total int64) {
	pool := preemptible.NewPool(rt, preemptible.PoolConfig{
		Workers:    1,
		Quantum:    poolQuantum,
		Discipline: d,
	})
	var wg sync.WaitGroup
	var hits atomic.Int64

	spin := func(ctx *preemptible.Ctx, dur time.Duration) {
		end := time.Now().Add(dur)
		for time.Now().Before(end) {
			for i := 0; i < 64; i++ {
				_ = i * i
			}
			ctx.Checkpoint()
		}
	}

	for i := 0; i < urgentCount; i++ {
		// A bulky task lands ahead of every 10 urgent ones.
		if i%10 == 0 && i/10 < bulkyCount {
			wg.Add(1)
			pool.SubmitWithOptions(func(ctx *preemptible.Ctx) { spin(ctx, bulkyWork) },
				preemptible.SubmitOptions{Deadline: time.Now().Add(10 * time.Second)},
				func(time.Duration) { wg.Done() })
		}
		wg.Add(1)
		deadline := time.Now().Add(urgentSLO)
		pool.SubmitWithOptions(func(ctx *preemptible.Ctx) { spin(ctx, urgentWork) },
			preemptible.SubmitOptions{Deadline: deadline}, func(lat time.Duration) {
				if time.Now().Before(deadline) {
					hits.Add(1)
				}
				wg.Done()
			})
		time.Sleep(150 * time.Microsecond)
	}
	wg.Wait()
	pool.Close()
	return hits.Load(), urgentCount
}
