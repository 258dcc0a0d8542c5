package main

import (
	"slices"
	"sync"
	"time"
)

// openLoopRate is the probe's fixed offered load, all connections together:
// about a third of what kv_read's closed loop completes on the machine the
// benchmark was defined on.
const openLoopRate = 20000

// openResult is the ungated paper-style point: latency from each request's
// intended start at a fixed offered rate, with the generator's own lateness
// beside it. On a VM whose timers are ~1 ms coarse the generator wakes
// late, sends everything then due back to back, and the latencies below are
// its lateness, not the server's tail — which is why nothing gates on them.
type openResult struct {
	rate, p50us, p99us, lagP99us float64
}

// runOpenLoop offers rate ops/s for the given time over the instance's LC
// connections. Request i of a connection is due at start + i×interval; the
// loader sleeps until it is due and then sends everything that has become
// due, one at a time, timing each from its due time.
func (in *instance) runOpenLoop(seconds float64, rate int) openResult {
	var lcs []*loader
	for _, l := range in.loaders {
		if !l.be {
			lcs = append(lcs, l)
		}
	}
	interval := time.Duration(float64(time.Second) * float64(len(lcs)) / float64(rate))
	start := time.Now().Add(time.Millisecond)
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	lat := make([][]uint32, len(lcs))
	lag := make([][]uint32, len(lcs))
	var wg sync.WaitGroup
	for c, l := range lcs {
		wg.Add(1)
		go func(c int, l *loader) {
			defer wg.Done()
			n := int(end.Sub(start) / interval)
			lat[c], lag[c] = make([]uint32, 0, n), make([]uint32, 0, n)
			for i := 0; i < n && l.next < len(l.s.ops); i++ {
				due := start.Add(time.Duration(i) * interval)
				now := time.Now()
				if now.Before(due) {
					time.Sleep(due.Sub(now))
					now = time.Now()
				}
				if _, ok := l.doNext(); !ok {
					continue
				}
				lat[c] = append(lat[c], clampNs(time.Since(due)))
				lag[c] = append(lag[c], clampNs(now.Sub(due)))
			}
		}(c, l)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var allLat, allLag []uint32
	for c := range lcs {
		allLat = append(allLat, lat[c]...)
		allLag = append(allLag, lag[c]...)
	}
	slices.Sort(allLat)
	slices.Sort(allLag)
	return openResult{
		rate:     float64(len(allLat)) / elapsed,
		p50us:    quantile(allLat, 0.50) / 1e3,
		p99us:    quantile(allLat, 0.99) / 1e3,
		lagP99us: quantile(allLag, 0.99) / 1e3,
	}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}
