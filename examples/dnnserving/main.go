// dnnserving: the §VII-C future-work use case, live — concurrent DNN
// inference on CPU with microsecond-class preemption. A latency-
// critical tiny MLP shares the worker pool with a large background
// model; both run *real* dense-layer inference (matmul + ReLU), with a
// preemption safepoint between layers.
//
// With a coarse quantum the big model's multi-millisecond inferences
// head-of-line block the tiny model; with a fine quantum the tiny
// model's tail collapses while the background model keeps making
// progress.
//
// Run: go run ./examples/dnnserving
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"repro/internal/dnnserve"
	"repro/preemptible"
)

// A single pool worker makes the library's scheduler — not the OS —
// the arbiter of the one physical CPU this demo typically runs on.
const (
	workers = 1
	lcCount = 200
	bgCount = 6
)

func main() {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	tiny := dnnserve.TinyMLP(1)
	big := dnnserve.BigCNNProxy(2)
	fmt.Printf("LC model: %s (%d MACs)   BG model: %s (%d MACs)\n\n",
		tiny.Name, tiny.MACs(), big.Name, big.MACs())

	for _, quantum := range []time.Duration{100 * time.Millisecond, 500 * time.Microsecond} {
		p99, bgDone := serve(rt, tiny, big, quantum)
		fmt.Printf("quantum %-8v  LC p99 = %8v   BG inferences completed = %d\n",
			quantum, p99.Round(10*time.Microsecond), bgDone)
	}
}

func serve(rt *preemptible.Runtime, tiny, big *dnnserve.Model, quantum time.Duration) (time.Duration, int) {
	pool := preemptible.NewPool(rt, preemptible.PoolConfig{Workers: workers, Quantum: quantum})

	lcIn := make([]float32, tiny.InputSize())
	bgIn := make([]float32, big.InputSize())
	for i := range lcIn {
		lcIn[i] = float32(i%7) * 0.3
	}
	for i := range bgIn {
		bgIn[i] = float32(i%11) * 0.1
	}

	var mu sync.Mutex
	var lcLats []time.Duration
	bgDone := 0
	var wg sync.WaitGroup

	// Background inferences keep the pool busy.
	for i := 0; i < bgCount; i++ {
		wg.Add(1)
		pool.SubmitWithOptions(func(ctx *preemptible.Ctx) {
			if _, err := big.Infer(ctx, bgIn); err != nil {
				log.Fatal(err)
			}
		}, preemptible.SubmitOptions{}, func(time.Duration) {
			mu.Lock()
			bgDone++
			mu.Unlock()
			wg.Done()
		})
	}
	// Latency-critical inferences trickle in.
	for i := 0; i < lcCount; i++ {
		wg.Add(1)
		pool.SubmitWithOptions(func(ctx *preemptible.Ctx) {
			if _, err := tiny.Infer(ctx, lcIn); err != nil {
				log.Fatal(err)
			}
		}, preemptible.SubmitOptions{}, func(lat time.Duration) {
			mu.Lock()
			lcLats = append(lcLats, lat)
			mu.Unlock()
			wg.Done()
		})
		time.Sleep(200 * time.Microsecond)
	}
	wg.Wait()
	pool.Close()

	sort.Slice(lcLats, func(i, j int) bool { return lcLats[i] < lcLats[j] })
	return lcLats[len(lcLats)*99/100], bgDone
}
