// kvcolocation: the paper's §V-C scenario on the live runtime — a
// latency-critical MICA-style key-value store sharing workers with a
// best-effort flate-compression job, under FCFS-with-preemption
// (scheduling policy #1).
//
// 98% of submitted tasks are KV GET/SET operations against a real
// in-memory store; 2% are real DEFLATE compressions of 25 kB blocks.
// The run is repeated with and without a preemption-friendly quantum;
// the report shows the LC job's tail latency collapsing under
// preemption while the BE job keeps most of its throughput — the
// Fig. 13 effect, live.
//
// Run: go run ./examples/kvcolocation
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bejob"
	"repro/internal/mica"
	"repro/internal/sim"
	"repro/preemptible"
)

// A single pool worker keeps the library's scheduler in charge of the
// physical CPU; LC submissions are paced open-loop so queueing reflects
// scheduling, not a submission burst.
const (
	workers   = 1
	totalOps  = 1000
	beEvery   = 25
	valueSize = 64
	lcPacing  = 300 * time.Microsecond
)

func main() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	for _, quantum := range []time.Duration{50 * time.Millisecond, 500 * time.Microsecond} {
		lcP99, beDone := run(rt, quantum)
		label := "coarse (LC unprotected)"
		if quantum < time.Millisecond {
			label = "fine (LC protected)   "
		}
		fmt.Printf("quantum %-8v %s  LC p99 = %8v   BE blocks done = %d\n",
			quantum, label, lcP99.Round(10*time.Microsecond), beDone)
	}
}

func run(rt *preemptible.Runtime, quantum time.Duration) (lcP99 time.Duration, beBlocks uint64) {
	pool := preemptible.NewPool(rt, preemptible.PoolConfig{
		Workers: workers,
		Quantum: quantum,
	})

	// The LC job: a real KV store pre-populated with a Zipfian keyspace.
	store := mica.NewStore(1<<22, 1<<14)
	zipf := sim.NewZipf(10000, 0.99)
	rng := sim.NewRNG(42)
	val := make([]byte, valueSize)
	for rank := 0; rank < 10000; rank++ {
		store.Set(mica.KeyForRank(rank), val)
	}

	// The BE job: real DEFLATE over 25 kB blocks.
	engine := bejob.NewEngine(0)
	block := bejob.MakeBlock(bejob.DefaultBlockBytes, 7)
	var blocks atomic.Uint64

	var mu sync.Mutex
	var lcLats []time.Duration
	var wg sync.WaitGroup

	for i := 0; i < totalOps; i++ {
		wg.Add(1)
		if i%beEvery == 0 {
			pool.SubmitWithOptions(func(ctx *preemptible.Ctx) {
				// Compress several blocks in fine slices so the task has
				// frequent safepoints.
				for rep := 0; rep < 4; rep++ {
					for chunk := 0; chunk < len(block); chunk += 1024 {
						end := chunk + 1024
						if end > len(block) {
							end = len(block)
						}
						if _, err := engine.CompressBlock(block[chunk:end]); err != nil {
							log.Fatal(err)
						}
						blocks.Add(1)
						ctx.Checkpoint()
					}
				}
			}, preemptible.SubmitOptions{}, func(time.Duration) { wg.Done() })
			continue
		}
		rank := zipf.Sample(rng)
		isSet := rng.Bernoulli(0.05)
		pool.SubmitWithOptions(func(ctx *preemptible.Ctx) {
			key := mica.KeyForRank(rank)
			if isSet {
				store.Set(key, val)
			} else {
				store.Get(key)
			}
		}, preemptible.SubmitOptions{}, func(lat time.Duration) {
			mu.Lock()
			lcLats = append(lcLats, lat)
			mu.Unlock()
			wg.Done()
		})
		time.Sleep(lcPacing)
	}
	wg.Wait()
	pool.Close()

	mu.Lock()
	defer mu.Unlock()
	lats := make([]int64, len(lcLats))
	for i, l := range lcLats {
		lats[i] = int64(l)
	}
	return time.Duration(exactQuantile(lats, 0.99)), blocks.Load()
}

func exactQuantile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	// insertion-free: copy + simple sort
	cp := append([]int64(nil), s...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(q*float64(len(cp))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
