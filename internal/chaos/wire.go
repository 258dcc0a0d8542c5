package chaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Wire faults: the hostile-network face of the chaos package. The other
// injectors degrade the *inside* of the process — simulated timer
// deliveries, worker cores, task bodies, whole shards. Conn/Listener
// degrade the byte stream itself, the one surface the resilience stack
// was never tested against: torn writes, stalled sockets, mid-stream
// resets, and half-open peers, all seeded and per-connection
// deterministic.
//
// Determinism follows the ShardKill contract: the listener hands each
// accepted connection its own RNG seeded with ChildSeed(Seed,
// acceptIndex), so the fault stream a connection experiences is a pure
// function of (root seed, accept index, that connection's own I/O
// sequence) — never of how sibling connections interleave. Burstiness
// rides the existing Gilbert–Elliott chain: each connection steps a
// private chain once per I/O operation, and faults only fire during
// bad-state sojourns, so a connection suffers *storms* of torn writes
// and stalls, not an i.i.d. trickle.
//
// The wrapper is side-agnostic — it wraps whichever net.Conn it is
// given — but the intended deployment is a chaos.Listener in front of a
// server: faults on the server's accepted conns are visible from both
// ends (a stalled server write is a stalled client read; a server-side
// RST mid-response is a torn client response), so one injection point
// exercises client and server hardening together.

// WireFault identifies one kind of injected wire fault.
type WireFault int

const (
	// FaultPartialWrite tears one Write into several smaller writes with
	// scheduling yields in between, so the peer's reads observe torn
	// frames (a line split across TCP segments).
	FaultPartialWrite WireFault = iota
	// FaultReadStall delays one Read by an exponential draw — a stalled
	// socket on the inbound side.
	FaultReadStall
	// FaultWriteStall delays one Write the same way.
	FaultWriteStall
	// FaultReset hard-closes the connection mid-write after leaking a
	// prefix of the payload: the peer sees a torn frame then a dead
	// connection, the classic mid-response reset.
	FaultReset
	// FaultHalfOpen silently stops delivering inbound bytes: writes keep
	// "succeeding" into the void, reads never return data again. This is
	// the peer-vanished-without-FIN failure that pins fds and goroutines
	// on an unhardened server.
	FaultHalfOpen
)

func (f WireFault) String() string {
	switch f {
	case FaultPartialWrite:
		return "partial-write"
	case FaultReadStall:
		return "read-stall"
	case FaultWriteStall:
		return "write-stall"
	case FaultReset:
		return "reset"
	case FaultHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("WireFault(%d)", int(f))
	}
}

// WireConfig parameterizes a wire-fault injector. The zero value
// injects nothing. All probabilities are per I/O operation and are only
// consulted while the connection's burst chain is in the bad state (or
// on every operation when Burst is nil — i.i.d. faults for unit tests).
type WireConfig struct {
	// Seed fixes every decision; per-connection streams are derived with
	// ChildSeed(Seed, acceptIndex).
	Seed uint64

	// PartialWriteProb is the probability one Write is torn into chunks.
	PartialWriteProb float64
	// StallProb is the probability one Read or Write stalls.
	StallProb float64
	// StallMean is the mean of the exponential stall-duration draw
	// (required when StallProb > 0); a single stall is capped at 8× the
	// mean so one unlucky draw cannot wedge a bounded soak.
	StallMean time.Duration
	// ResetProb is the probability one Write resets the connection after
	// leaking a prefix of the payload.
	ResetProb float64
	// HalfOpenProb is the probability one Read transitions the
	// connection to half-open for the rest of its life.
	HalfOpenProb float64

	// Burst, when non-nil, gates every fault behind a per-connection
	// Gilbert–Elliott chain stepped once per I/O operation: faults fire
	// only during bad-state steps, so they arrive in correlated storms.
	// Burst.Seed is ignored — each connection derives its chain seed
	// from its own child seed, keeping sibling connections independent.
	Burst *GEConfig
}

func (c WireConfig) validate() {
	for _, p := range []float64{c.PartialWriteProb, c.StallProb, c.ResetProb, c.HalfOpenProb} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("chaos: wire probability %v outside [0,1]", p))
		}
	}
	if c.StallProb > 0 && c.StallMean <= 0 {
		panic("chaos: StallProb without positive StallMean")
	}
}

// enabled reports whether the config can inject anything at all.
func (c WireConfig) enabled() bool {
	return c.PartialWriteProb > 0 || c.StallProb > 0 || c.ResetProb > 0 || c.HalfOpenProb > 0
}

// WireCounters tallies injected wire faults across a listener's
// connections.
type WireCounters struct {
	// Conns counts wrapped connections.
	Conns uint64
	// PartialWrites, ReadStalls, WriteStalls, Resets, HalfOpens count
	// fired faults by kind.
	PartialWrites, ReadStalls, WriteStalls, Resets, HalfOpens uint64
	// Suppressed counts fault verdicts masked off while the injector was
	// inactive (see Listener.SetActive).
	Suppressed uint64
}

// Total is the number of faults actually fired.
func (c WireCounters) Total() uint64 {
	return c.PartialWrites + c.ReadStalls + c.WriteStalls + c.Resets + c.HalfOpens
}

// Listener wraps a net.Listener, dressing every accepted connection in
// a seeded wire-fault injector. Accept order determines each
// connection's child seed; the fault stream within a connection is then
// independent of its siblings.
type Listener struct {
	net.Listener
	cfg    WireConfig
	next   uint64
	active atomic.Bool

	mu  sync.Mutex
	ctr WireCounters
}

// NewListener wraps ln. The injector starts active; SetActive(false)
// suspends fault firing (decision streams keep advancing).
func NewListener(ln net.Listener, cfg WireConfig) *Listener {
	cfg.validate()
	l := &Listener{Listener: ln, cfg: cfg}
	l.active.Store(true)
	return l
}

// SetActive enables or disables fault firing. While inactive every draw
// still happens — per-conn RNGs and burst chains advance identically —
// but fire verdicts are masked off and tallied as Suppressed, the same
// advance-but-mask trick ShardKill.Targets uses. This is what lets a
// soak run deterministic fault *windows*: toggling a window boundary
// never perturbs any connection's decision stream.
func (l *Listener) SetActive(v bool) { l.active.Store(v) }

// Active reports whether faults currently fire.
func (l *Listener) Active() bool { return l.active.Load() }

// Counters snapshots the fault tally across all connections.
func (l *Listener) Counters() WireCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctr
}

// Accept wraps the next connection with its own deterministic fault
// stream.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := atomic.AddUint64(&l.next, 1) - 1
	l.mu.Lock()
	l.ctr.Conns++
	l.mu.Unlock()
	return newConn(c, l.cfg, ChildSeed(l.cfg.Seed, idx), l), nil
}

// count folds one fired fault into the listener tally (nil-safe for
// standalone Conns).
func (l *Listener) count(f WireFault) {
	if l == nil {
		return
	}
	l.mu.Lock()
	switch f {
	case FaultPartialWrite:
		l.ctr.PartialWrites++
	case FaultReadStall:
		l.ctr.ReadStalls++
	case FaultWriteStall:
		l.ctr.WriteStalls++
	case FaultReset:
		l.ctr.Resets++
	case FaultHalfOpen:
		l.ctr.HalfOpens++
	}
	l.mu.Unlock()
}

func (l *Listener) suppress() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ctr.Suppressed++
	l.mu.Unlock()
}

// faultsActive reports whether faults fire right now (standalone conns
// are always active).
func (l *Listener) faultsActive() bool {
	return l == nil || l.active.Load()
}

// wireVerdict is one I/O operation's fault decision.
type wireVerdict struct {
	fault WireFault
	fire  bool
	stall time.Duration // FaultReadStall/FaultWriteStall
	chunk int           // FaultPartialWrite: max bytes per torn write
	leak  int           // FaultReset: payload bytes leaked before the close
}

// Conn is one wire-fault-injecting connection. All fault decisions come
// from its private RNG (and burst chain), so the fault sequence is a
// pure function of its seed and its own I/O call sequence. The decision
// state is guarded by its own mutex: the usual one-reader-one-writer
// discipline of a line protocol never contends, and even a conn driven
// concurrently from both directions stays race-free (though then the
// step order, hence exact reproducibility, follows the caller
// interleaving — same caveat as DelayChain).
type Conn struct {
	net.Conn
	cfg    WireConfig
	parent *Listener

	decMu sync.Mutex
	rng   *sim.RNG
	burst *GilbertElliott

	halfOpen  atomic.Bool
	closed    chan struct{}
	closeOnce sync.Once
}

// NewConn wraps a single connection with seed's deterministic fault
// stream — the standalone form for tests and client-side injection;
// servers normally go through NewListener.
func NewConn(c net.Conn, cfg WireConfig, seed uint64) *Conn {
	cfg.validate()
	return newConn(c, cfg, seed, nil)
}

func newConn(c net.Conn, cfg WireConfig, seed uint64, parent *Listener) *Conn {
	w := &Conn{
		Conn:   c,
		cfg:    cfg,
		parent: parent,
		rng:    sim.NewRNG(seed ^ 0x77697265), // "wire"
		closed: make(chan struct{}),
	}
	if cfg.Burst != nil {
		b := *cfg.Burst
		b.Seed = seed ^ 0x7762 // "wb"
		w.burst = NewGilbertElliott(b)
	}
	return w
}

// HalfOpen reports whether the connection has gone half-open.
func (w *Conn) HalfOpen() bool { return w.halfOpen.Load() }

// Close releases any in-flight stalls immediately and closes the
// underlying connection.
func (w *Conn) Close() error {
	w.closeOnce.Do(func() { close(w.closed) })
	return w.Conn.Close()
}

// decide draws one I/O operation's verdict. Every draw happens
// unconditionally and in a fixed order — burst step first, then the
// relevant Bernoulli coins — so the decision stream advances
// identically whether or not faults currently fire and regardless of
// which faults are configured off.
func (w *Conn) decide(write bool) wireVerdict {
	if !w.cfg.enabled() {
		return wireVerdict{}
	}
	w.decMu.Lock()
	defer w.decMu.Unlock()
	inBurst := true
	if w.burst != nil {
		bad, _ := w.burst.Step()
		inBurst = bad
	}
	var v wireVerdict
	v.fire = true
	switch {
	case write && w.cfg.ResetProb > 0 && w.rng.Bernoulli(w.cfg.ResetProb):
		v.fault = FaultReset
		v.leak = w.rng.Intn(64)
	case write && w.cfg.PartialWriteProb > 0 && w.rng.Bernoulli(w.cfg.PartialWriteProb):
		v.fault = FaultPartialWrite
		v.chunk = 1 + w.rng.Intn(7)
	case !write && w.cfg.HalfOpenProb > 0 && w.rng.Bernoulli(w.cfg.HalfOpenProb):
		v.fault = FaultHalfOpen
	case w.cfg.StallProb > 0 && w.rng.Bernoulli(w.cfg.StallProb):
		if write {
			v.fault = FaultWriteStall
		} else {
			v.fault = FaultReadStall
		}
		d := time.Duration(w.rng.Exp(float64(w.cfg.StallMean)))
		if max := 8 * w.cfg.StallMean; d > max {
			d = max
		}
		v.stall = 1 + d
	default:
		v.fire = false
	}
	if !v.fire {
		return wireVerdict{}
	}
	// The draw said fire; the burst gate and the active switch may still
	// mask it. Both masks happen after the draws so the RNG stream is
	// identical either way.
	if !inBurst {
		return wireVerdict{}
	}
	if !w.parent.faultsActive() {
		w.parent.suppress()
		return wireVerdict{}
	}
	return v
}

// sleep blocks for d or until the connection is closed, whichever comes
// first — a stalled injector must never outlive its connection.
func (w *Conn) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.closed:
	}
}

// Read applies read-side faults, then forwards to the wrapped
// connection. A half-open connection keeps consuming inbound bytes
// (so TCP does not backpressure the peer) but never delivers them;
// the read returns only when the underlying connection errors — a
// deadline set by a hardened server, or teardown. An unhardened reader
// blocks here forever, which is exactly the leak under test.
func (w *Conn) Read(p []byte) (int, error) {
	if w.halfOpen.Load() {
		return w.readHalfOpen(p)
	}
	switch v := w.decide(false); {
	case v.fire && v.fault == FaultHalfOpen:
		w.halfOpen.Store(true)
		w.parent.count(FaultHalfOpen)
		return w.readHalfOpen(p)
	case v.fire && v.fault == FaultReadStall:
		w.parent.count(FaultReadStall)
		w.sleep(v.stall)
	}
	return w.Conn.Read(p)
}

// readHalfOpen discards inbound data until the underlying read errors.
func (w *Conn) readHalfOpen(p []byte) (int, error) {
	var sink [4096]byte
	for {
		_, err := w.Conn.Read(sink[:])
		if err != nil {
			return 0, err
		}
	}
}

// Write applies write-side faults, then forwards. A half-open
// connection swallows writes whole: the caller sees success, the peer
// sees nothing.
func (w *Conn) Write(p []byte) (int, error) {
	if w.halfOpen.Load() {
		return len(p), nil
	}
	v := w.decide(true)
	if !v.fire {
		return w.Conn.Write(p)
	}
	switch v.fault {
	case FaultReset:
		w.parent.count(FaultReset)
		if v.leak > len(p) {
			v.leak = len(p)
		}
		if v.leak > 0 {
			w.Conn.Write(p[:v.leak]) //nolint:errcheck // the conn is dying anyway
		}
		// Linger 0 turns the close into a genuine RST on TCP: the peer's
		// pending read fails with ECONNRESET instead of a clean EOF.
		if tc, ok := w.Conn.(*net.TCPConn); ok {
			tc.SetLinger(0) //nolint:errcheck
		}
		w.Close() //nolint:errcheck
		return v.leak, io.ErrClosedPipe
	case FaultPartialWrite:
		w.parent.count(FaultPartialWrite)
		written := 0
		for written < len(p) {
			end := written + v.chunk
			if end > len(p) {
				end = len(p)
			}
			n, err := w.Conn.Write(p[written:end])
			written += n
			if err != nil {
				return written, err
			}
			// Yield between chunks so the peer gets a real chance to
			// observe the torn frame.
			time.Sleep(50 * time.Microsecond)
		}
		return written, nil
	case FaultWriteStall:
		w.parent.count(FaultWriteStall)
		w.sleep(v.stall)
	}
	return w.Conn.Write(p)
}
