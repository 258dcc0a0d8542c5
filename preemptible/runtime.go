package preemptible

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultQuantum is the time slice used when a caller passes 0.
const DefaultQuantum = 500 * time.Microsecond

// Config parameterizes a Runtime. It has no fields: a quantum expires
// when a safepoint reads the clock past the armed deadline, so there is
// no timer service to tune.
type Config struct{}

// Runtime hosts preemptible functions and their contexts. It runs no
// goroutine of its own: each context carries its own deadline word, and
// the task's safepoints (Ctx.Checkpoint) compare it against the clock —
// the one way a quantum expires (see the package comment).
type Runtime struct {
	closed atomic.Bool

	// preemptions counts quantum-expiry yields taken at a Checkpoint.
	preemptions atomic.Uint64

	// free holds the context free lists (the paper's), one per kind of
	// context: idle contexts, each a parked goroutine with its deadline
	// word disarmed. Launch pops one and release pushes it back onto its
	// own kind's list. A Pool worker keeps the context of the task it
	// just finished for its next launch of that class, so the lists and
	// freeMu are touched only when a preempted task carries a worker's
	// context away.
	freeMu sync.Mutex
	free   [NumClasses][]*Ctx
}

// maxParked bounds each free list. It needs no knob: contexts exist only
// in the number of tasks that were ever live at once, the bound merely
// caps how many of those stay parked after a burst (a few KiB of
// goroutine stack each, plus an OS thread for a BE context), and a
// context released beyond it is discarded — the next burst then pays the
// old per-task creation cost again, nothing else changes.
const maxParked = 256

// ErrClosed is returned by Launch after Close.
var ErrClosed = errors.New("preemptible: runtime closed")

// New returns a runtime. The error is always nil; the signature is kept
// for existing callers.
func New(Config) (*Runtime, error) { return &Runtime{}, nil }

// Close releases every parked context goroutine. Fns still running keep
// working; their contexts are discarded as they end, and Launch fails
// with ErrClosed. Close is idempotent.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	// release checks closed under freeMu, so a context pushed before
	// this swap is discarded here and one released after it discards
	// itself.
	r.freeMu.Lock()
	parked := r.free
	r.free = [NumClasses][]*Ctx{}
	r.freeMu.Unlock()
	for _, list := range parked {
		for _, c := range list {
			r.discard(c)
		}
	}
}

// Preemptions reports how many times a task yielded at a Checkpoint
// because its quantum had expired: the sum of the quantum-expiry yields
// its Fns took. A task that runs past its deadline without reaching a
// safepoint is not counted, since it was never preempted. Voluntary
// Yields are not counted either.
func (r *Runtime) Preemptions() uint64 { return r.preemptions.Load() }

// acquire returns an idle context of the class's kind for a launch:
// spare if the caller kept one from its last task of that class (a Pool
// worker), else the top of the kind's free list, else a new one. It
// fails with ErrClosed after Close; a spare is then discarded.
func (r *Runtime) acquire(class Class, spare *Ctx) (*Ctx, error) {
	if r.closed.Load() {
		if spare != nil {
			r.discard(spare)
		}
		return nil, ErrClosed
	}
	if spare != nil {
		return spare, nil
	}
	r.freeMu.Lock()
	free := r.free[class]
	if n := len(free); n > 0 {
		c := free[n-1]
		free[n-1] = nil
		r.free[class] = free[:n-1]
		r.freeMu.Unlock()
		return c, nil
	}
	r.freeMu.Unlock()
	c := &Ctx{rt: r, class: class, parkCh: make(chan struct{}), runCh: make(chan struct{}), yieldCh: make(chan bool)}
	go c.loop()
	return c, nil
}

// release parks an idle context on its kind's free list, or discards it
// when that list is full or the runtime is closed.
func (r *Runtime) release(c *Ctx) {
	r.freeMu.Lock()
	if r.closed.Load() || len(r.free[c.class]) >= maxParked {
		r.freeMu.Unlock()
		r.discard(c)
		return
	}
	r.free[c.class] = append(r.free[c.class], c)
	r.freeMu.Unlock()
}

// discard ends an idle context: its goroutine, parked in loop with no
// task, is woken to exit.
func (r *Runtime) discard(c *Ctx) { c.parkCh <- struct{}{} }
