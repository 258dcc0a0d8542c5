// Package tailclient is a tail-tolerant client for the liveserver line
// protocol: every operation carries an absolute wire deadline
// (D token) and attempt number (A token), slow operations are hedged
// after an adaptively tracked delay, and all re-attempt traffic —
// hedges and retries alike — draws from one token-bucket retry budget
// so a struggling server is never hit with a self-inflicted retry
// storm ("The Tail at Scale" client half; the server half is the
// pool's doomed-work shedding).
//
// One function, attempt, is a wire attempt: take a pooled connection,
// assemble the request line with its tokens in the connection's write
// buffer, write it once, read the newline-terminated reply straight out
// of the reader's buffer, classify it. With hedging off it runs on the
// caller's goroutine — an operation costs no goroutine, no channel and
// one allocation, the reply string — and Close, which closes every live
// connection, is what interrupts it. With hedging on the same function
// runs in a goroutine per leg and the legs race.
package tailclient

import (
	"sort"
	"sync"
	"time"
)

// digest is a windowed latency sketch: the last Window samples in a
// ring buffer, quantiles computed on demand. Small windows adapt fast
// (a hedge trigger should follow the current latency regime, not the
// regime an hour ago); the sort cost is bounded by the window.
type digest struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

func newDigest(window int) *digest {
	return &digest{ring: make([]time.Duration, window)}
}

// Record folds one sample into the window.
func (d *digest) Record(v time.Duration) {
	d.mu.Lock()
	d.ring[d.next] = v
	d.next++
	if d.next == len(d.ring) {
		d.next = 0
		d.full = true
	}
	d.mu.Unlock()
}

// Len reports how many samples the window currently holds.
func (d *digest) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.full {
		return len(d.ring)
	}
	return d.next
}

// Quantile reports the q-quantile (0 < q ≤ 1) of the window, or 0 when
// the window is empty.
func (d *digest) Quantile(q float64) time.Duration {
	d.mu.Lock()
	n := d.next
	if d.full {
		n = len(d.ring)
	}
	if n == 0 {
		d.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, d.ring[:n])
	d.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return buf[idx]
}
