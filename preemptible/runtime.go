package preemptible

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultResolution is the timer goroutine's polling period. The real
// LibUtimer polls the TSC continuously from a dedicated core and
// reaches 3 µs quanta; a Go timer goroutine is bounded by runtime timer
// resolution, so the default is conservative.
const DefaultResolution = 50 * time.Microsecond

// DefaultQuantum is the time slice used when a caller passes 0.
const DefaultQuantum = 500 * time.Microsecond

// DefaultWatchdogInterval is the supervisor's heartbeat-check period.
const DefaultWatchdogInterval = 2 * time.Millisecond

// Clock abstracts the runtime's time source: Now for deadline words and
// NewTicker for the timer loop's poll cadence. NewTicker returns the
// tick channel and a stop function (deliberately structural — no named
// ticker type — so fault injectors like internal/chaos can implement
// it without importing this package). The zero Config uses the real
// clock; a fault-injecting clock can starve tickers to simulate a
// wedged timer service.
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) (ticks <-chan time.Time, stop func())
}

// realClock is the default Clock: time.Now and time.NewTicker.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// Config parameterizes a Runtime.
type Config struct {
	// Resolution is the deadline-polling period of the timer goroutine
	// (DefaultResolution if 0).
	Resolution time.Duration

	// Clock is the time source (real clock if nil). Injectable for
	// tests and chaos scenarios.
	Clock Clock

	// WatchdogInterval is how often the supervisor checks the timer
	// loop's heartbeat (DefaultWatchdogInterval if 0; negative disables
	// the watchdog). The watchdog always runs on the real clock, so it
	// keeps supervising even when an injected Clock misbehaves.
	WatchdogInterval time.Duration

	// StallThreshold is how stale the heartbeat may grow before the
	// watchdog declares the timer loop wedged, marks the runtime
	// Degraded, and restarts the loop. Default: 4× the effective
	// watchdog interval (but at least 8× Resolution).
	StallThreshold time.Duration

	// MaxTimerRestarts is the watchdog's escalation bound: after this
	// many restarts within RestartWindow the fault is treated as
	// persistent — the watchdog stops restarting, the runtime stays
	// Degraded forever, and Terminal() reports true. Fns keep running
	// cooperatively (Checkpoint enforces quanta with its own clock
	// reads). 0 = restart forever (the historical behavior).
	MaxTimerRestarts int

	// RestartWindow is the sliding window the escalation bound counts
	// restarts in (DefaultRestartWindow if 0). Restarts spread thinner
	// than MaxTimerRestarts per window — transient faults the restarts
	// actually cured — never escalate.
	RestartWindow time.Duration
}

// DefaultRestartWindow is the escalation window used when
// MaxTimerRestarts is set and RestartWindow is 0.
const DefaultRestartWindow = time.Second

// Runtime hosts preemptible functions and the timer service (the
// LibUtimer analog: one goroutine polling registered deadlines and
// raising preemption flags). A supervisor goroutine — the watchdog —
// monitors the timer loop's heartbeat and restarts it if it wedges;
// while the timer service is down the runtime reports Degraded and Fns
// keep running cooperatively (Checkpoint enforces deadlines with its
// own clock reads).
type Runtime struct {
	resolution     time.Duration
	clock          Clock
	watchdogPeriod time.Duration
	stallThreshold time.Duration
	maxRestarts    int
	restartWindow  time.Duration

	// mu guards the timer service's registry of contexts and the
	// watchdog's loop hand-over. It is off the per-task path: a context
	// is registered once, when it is created, and removed when it is
	// discarded.
	mu       sync.Mutex
	ctxs     map[*Ctx]struct{}
	closed   atomic.Bool
	stop     chan struct{}
	loopQuit chan struct{} // closed by the watchdog to kill a wedged loop
	stopWG   sync.WaitGroup

	// heartbeat is the real-time unixnano of the timer loop's last
	// iteration, stamped on every tick and read by the watchdog.
	heartbeat atomic.Int64
	// degraded is set by the watchdog on a detected stall and cleared
	// by the timer loop's next successful tick.
	degraded atomic.Bool
	// terminal is set once the watchdog gives up restarting (the
	// escalation policy); it is never cleared.
	terminal atomic.Bool
	// timerRestarts counts watchdog-initiated timer-loop restarts.
	timerRestarts atomic.Uint64
	// timerFlags counts preemption flags raised by the timer loop
	// specifically (preemptions also counts Checkpoint's self-raised
	// flags).
	timerFlags atomic.Uint64

	// Preemptions counts deadline-expiry preemption flags raised.
	preemptions atomic.Uint64

	// free holds the context free lists (the paper's), one per kind of
	// context: idle contexts, each a parked goroutine still registered
	// with the timer service with its deadline word disarmed. Launch pops
	// one and release pushes it back onto its own kind's list. A Pool
	// worker keeps the context of the task it just finished for its next
	// launch of that class, so the lists and freeMu are touched only when
	// a preempted task carries a worker's context away.
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

// New starts a runtime, its timer goroutine, and (unless disabled) the
// watchdog supervising it.
func New(cfg Config) (*Runtime, error) {
	res := cfg.Resolution
	if res == 0 {
		res = DefaultResolution
	}
	if res < 0 {
		return nil, errors.New("preemptible: negative resolution")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = realClock{}
	}
	wd := cfg.WatchdogInterval
	if wd == 0 {
		wd = DefaultWatchdogInterval
	}
	stall := cfg.StallThreshold
	if stall <= 0 {
		stall = 4 * wd
		if m := 8 * res; stall < m {
			stall = m
		}
	}
	rw := cfg.RestartWindow
	if rw == 0 {
		rw = DefaultRestartWindow
	}
	r := &Runtime{
		resolution:     res,
		clock:          clk,
		watchdogPeriod: wd,
		stallThreshold: stall,
		maxRestarts:    cfg.MaxTimerRestarts,
		restartWindow:  rw,
		ctxs:           make(map[*Ctx]struct{}),
		stop:           make(chan struct{}),
		loopQuit:       make(chan struct{}),
	}
	r.heartbeat.Store(time.Now().UnixNano())
	r.stopWG.Add(1)
	go r.utimerLoop(r.loopQuit)
	if wd > 0 {
		r.stopWG.Add(1)
		go r.watchdog()
	}
	return r, nil
}

// Close stops the timer goroutine and the watchdog and releases every
// parked context goroutine. Fns still running keep working but will no
// longer be preempted by deadline expiry; their contexts are discarded
// as they end. Close is idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return
	}
	r.closed.Store(true)
	close(r.stop)
	r.mu.Unlock()
	r.stopWG.Wait()
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

// Preemptions reports how many deadline expirations have been
// delivered (by the timer service or by Checkpoint's own clock read).
func (r *Runtime) Preemptions() uint64 { return r.preemptions.Load() }

// TimerPreemptions reports how many preemption flags the timer loop
// itself raised — the subset of Preemptions delivered by the timer
// service rather than self-enforced at a safepoint.
func (r *Runtime) TimerPreemptions() uint64 { return r.timerFlags.Load() }

// Degraded reports whether the timer service is currently considered
// down (watchdog detected a stalled loop that has not ticked again
// yet). Fns keep running cooperatively while degraded: Checkpoint
// enforces deadlines with its own clock reads, so quanta are honored —
// only asynchronous flag delivery is lost.
func (r *Runtime) Degraded() bool { return r.degraded.Load() }

// Terminal reports whether the watchdog escalated: MaxTimerRestarts
// restarts landed inside RestartWindow, the fault was declared
// persistent, and the timer service was permanently retired. A
// terminal runtime stays Degraded forever but remains correct — quanta
// are enforced cooperatively at safepoints.
func (r *Runtime) Terminal() bool { return r.terminal.Load() }

// TimerRestarts reports how many times the watchdog restarted a wedged
// timer loop.
func (r *Runtime) TimerRestarts() uint64 { return r.timerRestarts.Load() }

// utimerLoop is the LibUtimer analog: poll the clock, compare against
// registered deadline words, raise preemption flags. quit is this
// loop generation's kill switch, closed by the watchdog on restart.
func (r *Runtime) utimerLoop(quit chan struct{}) {
	defer r.stopWG.Done()
	ticks, stopTicker := r.clock.NewTicker(r.resolution)
	defer stopTicker()
	for {
		select {
		case <-r.stop:
			return
		case <-quit:
			return
		case <-ticks:
		}
		if r.terminal.Load() {
			// The watchdog already declared the fault persistent; a
			// zombie generation reviving must not clear the terminal
			// Degraded state.
			return
		}
		r.heartbeat.Store(time.Now().UnixNano())
		r.degraded.Store(false)
		now := r.clock.Now().UnixNano()
		r.mu.Lock()
		for c := range r.ctxs {
			// Parked contexts stay registered with their word at 0. The
			// swap flags only the deadline that was read: a context
			// reused in between keeps its new deadline.
			d := c.deadline.Load()
			if d > 0 && now >= d && c.deadline.CompareAndSwap(d, preemptPending) {
				r.preemptions.Add(1)
				r.timerFlags.Add(1)
			}
		}
		r.mu.Unlock()
	}
}

// watchdog supervises the timer loop: if the heartbeat goes stale past
// the stall threshold the loop is declared wedged (blocked on a dead
// tick source, starved, or crashed), the runtime is marked Degraded,
// and a fresh loop generation is started with a fresh ticker. The
// watchdog deliberately uses the real clock, not the injectable one:
// it must outlive the fault it supervises.
//
// Escalation: with MaxTimerRestarts set, once that many restarts land
// inside RestartWindow the fault is persistent — restarting forever
// against it only burns cycles. The watchdog kills the wedged
// generation, marks the runtime terminally Degraded, and retires.
func (r *Runtime) watchdog() {
	defer r.stopWG.Done()
	ticker := time.NewTicker(r.watchdogPeriod)
	defer ticker.Stop()
	var restarts []time.Time // within-window restart history
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		stale := time.Since(time.Unix(0, r.heartbeat.Load()))
		if stale < r.stallThreshold {
			continue
		}
		r.mu.Lock()
		if r.closed.Load() {
			r.mu.Unlock()
			return
		}
		r.degraded.Store(true)
		now := time.Now()
		if r.maxRestarts > 0 {
			keep := restarts[:0]
			for _, t := range restarts {
				if now.Sub(t) < r.restartWindow {
					keep = append(keep, t)
				}
			}
			restarts = keep
			if len(restarts) >= r.maxRestarts {
				// Persistent fault: stop the wedged generation for good
				// and leave the runtime terminally degraded.
				r.terminal.Store(true)
				close(r.loopQuit)
				r.mu.Unlock()
				return
			}
			restarts = append(restarts, now)
		}
		r.timerRestarts.Add(1)
		close(r.loopQuit)
		r.loopQuit = make(chan struct{})
		// Grace period: give the new loop a full threshold to produce
		// its first heartbeat before the next stall verdict.
		r.heartbeat.Store(now.UnixNano())
		r.stopWG.Add(1)
		go r.utimerLoop(r.loopQuit)
		r.mu.Unlock()
	}
}

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
	if err := r.register(c); err != nil {
		return nil, err
	}
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
// task, is woken to exit, and its deadline word leaves the timer
// service.
func (r *Runtime) discard(c *Ctx) {
	c.parkCh <- struct{}{}
	r.mu.Lock()
	delete(r.ctxs, c)
	r.mu.Unlock()
}

// register adds a new context's deadline word to the timer service
// (utimer_register). This and discard are the only places contexts meet
// Runtime.mu — once per context, not per task. It fails with ErrClosed
// after Close so that a Launch racing Close can never create a context
// the closed runtime would keep forever.
func (r *Runtime) register(c *Ctx) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	r.ctxs[c] = struct{}{}
	return nil
}

// registered reports the number of contexts holding a live task (for
// tests): parked contexts stay in the registry but do not count.
func (r *Runtime) registered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for c := range r.ctxs {
		if c.live.Load() {
			n++
		}
	}
	return n
}
