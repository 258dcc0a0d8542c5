package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/tailclient"
)

// subWindows is how many equal parts the timed window is cut into for the
// tail estimate: lc_p99_us is the median of the parts' exact p99s, which
// rides out a single host stall that a whole-window p99 would report.
const subWindows = 10

// loader is one closed-loop caller: it sends its stream's next request only
// after the previous reply has been validated.
type loader struct {
	tc  *tailclient.Client
	tab *tables
	s   *stream
	v   *validator
	be  bool

	next int // stream position; the window continues where warm-up stopped

	// Totals over the loader's whole life (warm-up, window, probes). failed
	// counts every operation that did not succeed at its first attempt;
	// wrong counts the ones among them that were answered, and answered
	// wrongly (the validator keeps the first).
	attempted, failed, wrong int
	exhausted                bool
	firstRefusal             string

	// Window measurements, reset by beginWindow.
	lat     []uint32        // ns, validated ops completed inside the window
	winEnd  [subWindows]int // len(lat) at the end of each sub-window
	payload int64           // validated payload bytes inside the window
	cur     int             // sub-window being filled
	sub     time.Duration   // sub-window length
}

// beginWindow sizes the latency log for the rest of the stream, so that
// recording a sample never allocates inside the window.
func (l *loader) beginWindow(seconds float64) {
	l.lat = make([]uint32, 0, len(l.s.ops)-l.next)
	l.winEnd = [subWindows]int{}
	l.payload, l.cur = 0, 0
	l.sub = time.Duration(seconds * float64(time.Second) / subWindows)
}

// doNext sends the stream's next request and validates the reply. ok is
// false for a wrong reply and for an operation that did not succeed at its
// first attempt: a retried op was refused or lost once, and its caller
// waited through a back-off.
func (l *loader) doNext() (payload int, ok bool) {
	o := l.s.ops[l.next]
	l.next++
	res, err := l.tc.Do(l.s.line(l.tab, o))
	l.attempted++
	if err != nil || res.Outcome != tailclient.OK || res.Attempts != 1 {
		l.failed++
		if l.firstRefusal == "" {
			l.firstRefusal = fmt.Sprintf("conn %d: %q ended %v after %d attempts (err %v, reply %q)", l.v.conn, l.s.line(l.tab, o), res.Outcome, res.Attempts, err, res.Resp)
		}
		return 0, false
	}
	if payload, ok = l.v.check(l.s, o, res.Resp); !ok {
		l.failed++
		l.wrong++
	}
	return payload, ok
}

// run sends requests while more(n) holds for the count n sent so far,
// stopping before the first one that would start at or after end (zero end
// = no time limit). Latency is send → validated reply. An op that straddles
// end is executed and validated but not measured, so the window's length is
// exactly end − start.
func (l *loader) run(start, end time.Time, more func(n int) bool) {
	timed := !end.IsZero()
	for n := 0; more(n); n++ {
		if l.next >= len(l.s.ops) {
			l.exhausted = true
			break
		}
		t0 := time.Now()
		if timed && !t0.Before(end) {
			break
		}
		payload, ok := l.doNext()
		t1 := time.Now()
		if !ok || !timed || t1.After(end) {
			continue
		}
		for w := int(t1.Sub(start) / l.sub); l.cur < w && l.cur < subWindows; l.cur++ {
			l.winEnd[l.cur] = len(l.lat)
		}
		l.lat = append(l.lat, uint32(t1.Sub(t0)))
		l.payload += int64(payload)
	}
	for ; timed && l.cur < subWindows; l.cur++ {
		l.winEnd[l.cur] = len(l.lat)
	}
}

// window is what one timed closed-loop window measured.
type window struct {
	seconds        float64
	lcOps, beOps   int
	lcLat          []uint32 // every LC latency, sorted
	subP99         [subWindows]float64
	minSub         int // smallest sub-window sample count
	payload, beKiB int64
	mallocs        uint64
	memMiB         float64
}

// runWindow drives every loader for seconds and collects the measurements.
func (in *instance) runWindow(seconds float64) window {
	for _, l := range in.loaders {
		l.beginWindow(seconds)
	}
	var before, after runtime.MemStats
	runtime.GC() // every window starts from a collected heap
	runtime.ReadMemStats(&before)
	start := time.Now()
	in.runAll(start, start.Add(time.Duration(seconds*float64(time.Second))), 0)
	runtime.ReadMemStats(&after)
	win := aggregate(in.loaders, seconds)
	win.mallocs = after.Mallocs - before.Mallocs
	win.memMiB = float64(after.Sys-after.HeapReleased) / (1 << 20)
	return win
}

// aggregate folds the loaders' window logs into one window's estimates.
func aggregate(loaders []*loader, seconds float64) window {
	win := window{seconds: seconds}
	var sub [subWindows][]uint32
	for _, l := range loaders {
		win.payload += l.payload
		if l.be {
			win.beOps += len(l.lat)
			win.beKiB += l.payload >> 10
			continue
		}
		win.lcOps += len(l.lat)
		win.lcLat = append(win.lcLat, l.lat...)
		from := 0
		for i, to := range l.winEnd {
			sub[i] = append(sub[i], l.lat[from:to]...)
			from = to
		}
	}
	slices.Sort(win.lcLat)
	win.minSub = len(win.lcLat)
	for i := range sub {
		win.minSub = min(win.minSub, len(sub[i]))
		slices.Sort(sub[i])
		win.subP99[i] = quantile(sub[i], 0.99)
	}
	return win
}

// quantile is the exact nearest-rank quantile of sorted (ascending) ns
// samples, in ns: the smallest sample with at least q of the samples at or
// below it. NaN when there are no samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median of a small float slice (sorted copy; mean of the middle two when
// the count is even). NaN entries make the result NaN.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if math.IsNaN(s[0]) || math.IsNaN(s[len(s)-1]) {
		return math.NaN()
	}
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func (w window) opsPerSec() float64 { return float64(w.lcOps) / w.seconds }
func (w window) p50us() float64     { return quantile(w.lcLat, 0.50) / 1e3 }
func (w window) p99us() float64     { return median(w.subP99[:]) / 1e3 }
func (w window) goodputKiBs() float64 {
	return float64(w.payload) / 1024 / w.seconds
}
func (w window) beKiBs() float64 { return float64(w.beKiB) / w.seconds }

// allocsPerOp divides by units of work: an LC operation, or one KiB of BE
// input (COMPRESS n is n kilobytes of work, checkpointed per kilobyte). Per
// request instead, colocate's figure would swing with how many of the
// window's requests happened to be the thousand-allocation BE ones.
func (w window) allocsPerOp() float64 {
	return float64(w.mallocs) / float64(int64(w.lcOps)+w.beKiB)
}
