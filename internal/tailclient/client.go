package tailclient

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("tailclient: client closed")

// Config parameterizes a Client. The zero value of every field takes a
// sensible default; only Addr is required.
type Config struct {
	// Addr is the server's TCP address.
	Addr string
	// DialTimeout bounds one dial (default 2s).
	DialTimeout time.Duration
	// MaxConns caps the idle connection stack (default 4). The stack is
	// LIFO so the hottest connection is reused first; hedges naturally
	// take the next one down.
	MaxConns int

	// OpDeadline, when positive, gives every operation an absolute
	// deadline of now+OpDeadline, propagated to the server as a D token:
	// the server drops the work at dequeue (or unwinds it at a
	// safepoint) once the client has given up, and a hedge's abandoned
	// twin dies server-side the same way.
	OpDeadline time.Duration

	// Hedge enables hedged requests: if the primary attempt has not
	// answered within the hedge delay — the HedgeQuantile of recent
	// operation latencies, floored at HedgeMin — a second attempt is
	// sent on another connection and the first response wins.
	Hedge bool
	// HedgeQuantile is the latency quantile that sets the hedge delay
	// (default 0.95: hedge the slowest ~5%).
	HedgeQuantile float64
	// HedgeMin floors the hedge delay (default 1ms) so a cold or
	// very-fast-regime digest cannot hedge everything.
	HedgeMin time.Duration
	// Window is the latency digest's sample window (default 512).
	Window int

	// IOTimeout, when positive, bounds each attempt's time on the wire:
	// the connection's deadline is set to min(now+IOTimeout, op
	// deadline) before the request is written, so a stalled or
	// half-open server connection fails the attempt instead of pinning
	// it (and its goroutine) forever. When zero, the op deadline alone
	// bounds the wire (no bound if that is also unset).
	IOTimeout time.Duration

	// Idempotent classifies an operation (the raw line passed to Do,
	// without metadata tokens) as safe to re-send after a transport
	// error that consumed response bytes — the server may have executed
	// the op, so only idempotent ops may be retried from that state.
	// Nil means the default verb table: GET/MGET/PING/STATS/STATS2 are
	// idempotent; SET/COMPRESS (and anything unknown) are not.
	Idempotent func(op string) bool

	// Dial overrides connection establishment (tests, chaos wrappers).
	// Nil means net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// RetryMax bounds budgeted retries per operation (default 3).
	RetryMax int
	// RetryBase/RetryCap shape the exponential, full-jitter backoff
	// between retries (defaults 200µs / 50ms).
	RetryBase, RetryCap time.Duration

	// BudgetRatio is the retry-budget accrual per primary operation
	// (default 0.1: re-attempt traffic — hedges plus retries — is
	// bounded by ~10% of primaries). BudgetBurst caps the bucket
	// (default 10).
	BudgetRatio float64
	// BudgetBurst caps accumulated budget tokens (default 10).
	BudgetBurst float64

	// Seed fixes the backoff jitter.
	Seed uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 4
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile > 1 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 512
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Microsecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 50 * time.Millisecond
	}
	if cfg.BudgetRatio <= 0 {
		cfg.BudgetRatio = 0.1
	}
	if cfg.BudgetBurst <= 0 {
		cfg.BudgetBurst = 10
	}
	if cfg.Idempotent == nil {
		cfg.Idempotent = DefaultIdempotent
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return cfg
}

// DefaultIdempotent is the built-in retry-safety table: reads and
// diagnostics may be re-sent even when the server might have executed
// the first copy; mutations and compute may not.
func DefaultIdempotent(op string) bool {
	verb := op
	if i := strings.IndexByte(op, ' '); i >= 0 {
		verb = op[:i]
	}
	switch verb {
	case "GET", "MGET", "PING", "STATS", "STATS2":
		return true
	}
	return false
}

// Outcome is an operation's terminal disposition.
type Outcome int

const (
	// OK: the server answered; Resp holds the response line (which may
	// itself be an application-level error like NOT_FOUND).
	OK Outcome = iota
	// Expired: the operation's end-to-end deadline passed — client-side
	// before an attempt could be sent, or server-side ("ERR deadline").
	Expired
	// Rejected: every budgeted attempt was turned away by a retryable
	// server rejection (overloaded/brownout/unavailable) or transport
	// error; Resp holds the last rejection.
	Rejected
	// Aborted: Close interrupted the operation (mid-wait or mid-backoff).
	Aborted
	// Errored: a transport fault broke the attempt after response bytes
	// were consumed on a non-idempotent op — the server may have
	// executed it, so re-sending is unsafe and the op is terminal with
	// an indeterminate server-side effect.
	Errored
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Expired:
		return "expired"
	case Rejected:
		return "rejected"
	case Aborted:
		return "aborted"
	case Errored:
		return "errored"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result is one operation's outcome.
type Result struct {
	// Resp is the winning (or last) response line.
	Resp string
	// Latency is the end-to-end operation latency (success only).
	Latency time.Duration
	// Attempts counts wire attempts actually sent (primary + hedges +
	// retries).
	Attempts int
	// Retries counts backoff-retried attempts.
	Retries int
	// Hedged marks that a hedge was sent; HedgeWon that the hedge's
	// response arrived first.
	Hedged, HedgeWon bool
	// Outcome is the terminal disposition.
	Outcome Outcome
}

// Stats is a snapshot of the client's counters.
type Stats struct {
	// Primaries counts Do calls; Attempts counts wire attempts sent.
	Primaries, Attempts uint64
	// Retries and Hedges count budgeted re-attempts by kind; HedgeWins
	// counts hedges whose response won the race.
	Retries, Hedges, HedgeWins uint64
	// BudgetDenied counts re-attempts the retry budget refused — the
	// client degraded to first-attempt-only instead of amplifying load.
	BudgetDenied uint64
	// Expired counts operations whose end-to-end deadline passed;
	// Aborted counts operations interrupted by Close.
	Expired, Aborted uint64
	// Errored counts operations settled Errored: a transport fault
	// consumed response bytes on a non-idempotent op, so re-sending was
	// unsafe.
	Errored uint64
	// ConnsEvicted counts connections closed and removed from the pool
	// after an I/O error or a poisoned (stale-buffered) state — broken
	// conns are never handed to the next op.
	ConnsEvicted uint64
}

// Client is a tail-tolerant line-protocol client. Safe for concurrent
// use; operations on one Client share its connection stack, latency
// digest, and retry budget.
type Client struct {
	cfg    Config
	budget *budget
	dig    *digest

	rngMu sync.Mutex
	rng   *sim.RNG

	mu     sync.Mutex
	idle   []*wireConn // LIFO
	live   map[*wireConn]struct{}
	closed bool

	done      chan struct{}
	closeOnce sync.Once

	primaries, attempts, retries uint64
	hedges, hedgeWins            uint64
	expired, aborted             uint64
	errored, evicted             uint64
}

// wireConn is one pooled connection, with the buffer its request lines
// are assembled in.
type wireConn struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// roundTrip writes one request line — op, then the D and A tokens the
// deadline and attempt number call for — and reads one
// newline-terminated response. A response truncated by a mid-stream
// close or reset is an error, never a success — bufio.Scanner would
// have returned the final unterminated token as valid text, which is
// exactly how a torn response used to masquerade as a server reply.
// consumed reports whether any response bytes were read before the
// failure: if so, the server started (and may have finished) executing
// the request.
func (w *wireConn) roundTrip(op string, deadline time.Time, attempt int, ioDeadline time.Time) (resp string, consumed bool, err error) {
	if err := w.nc.SetDeadline(ioDeadline); err != nil {
		return "", false, err
	}
	line := append(w.wbuf[:0], op...)
	if !deadline.IsZero() {
		line = strconv.AppendInt(append(line, " D"...), deadline.UnixMicro(), 10)
	}
	if attempt > 0 {
		line = strconv.AppendInt(append(line, " A"...), int64(attempt), 10)
	}
	line = append(line, '\n')
	w.wbuf = line
	if _, err := w.nc.Write(line); err != nil {
		return "", w.br.Buffered() > 0, err
	}
	// The reply is converted to a string once, straight out of the
	// reader's buffer. One longer than that buffer (a 60 KiB value, a
	// wide MGET) is gathered the slow way, behind the part already read.
	b, err := w.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		head := string(b)
		var tail string
		if tail, err = w.br.ReadString('\n'); err == nil {
			return strings.TrimRight(head+tail, "\r\n"), true, nil
		}
		return "", true, err
	}
	if err != nil {
		return "", len(b) > 0, err
	}
	return string(bytes.TrimRight(b, "\r\n")), true, nil
}

// New builds a client. No connection is dialed until the first Do.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:    cfg,
		budget: newBudget(cfg.BudgetRatio, cfg.BudgetBurst),
		dig:    newDigest(cfg.Window),
		rng:    sim.NewRNG(cfg.Seed ^ 0x7461696c), // "tail"
		live:   make(map[*wireConn]struct{}),
		done:   make(chan struct{}),
	}
}

// Stats snapshots the counters.
func (c *Client) Stats() Stats {
	return Stats{
		Primaries:    atomic.LoadUint64(&c.primaries),
		Attempts:     atomic.LoadUint64(&c.attempts),
		Retries:      atomic.LoadUint64(&c.retries),
		Hedges:       atomic.LoadUint64(&c.hedges),
		HedgeWins:    atomic.LoadUint64(&c.hedgeWins),
		BudgetDenied: c.budget.Denied(),
		Expired:      atomic.LoadUint64(&c.expired),
		Aborted:      atomic.LoadUint64(&c.aborted),
		Errored:      atomic.LoadUint64(&c.errored),
		ConnsEvicted: atomic.LoadUint64(&c.evicted),
	}
}

// HedgeDelay reports the delay a hedge sent now would wait: the
// configured quantile of the latency window, floored at HedgeMin.
func (c *Client) HedgeDelay() time.Duration {
	d := c.dig.Quantile(c.cfg.HedgeQuantile)
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	return d
}

// Close interrupts in-flight operations (they return Aborted) and
// closes every pooled connection. Idempotent.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.mu.Lock()
		c.closed = true
		for cn := range c.live {
			cn.nc.Close()
		}
		c.idle = nil
		c.mu.Unlock()
	})
}

func (c *Client) getConn() (*wireConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	for n := len(c.idle); n > 0; n = len(c.idle) {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		if cn.br.Buffered() > 0 {
			// Poisoned: unread bytes mean a past response desynced from
			// its request — the next round trip would read a stale
			// answer. Evict instead of handing it out.
			delete(c.live, cn)
			c.mu.Unlock()
			cn.nc.Close()
			atomic.AddUint64(&c.evicted, 1)
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return nil, ErrClosed
			}
			continue
		}
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	nc, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	cn := &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64*1024)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	c.live[cn] = struct{}{}
	c.mu.Unlock()
	return cn, nil
}

func (c *Client) putConn(cn *wireConn) {
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.cfg.MaxConns {
		delete(c.live, cn)
		c.mu.Unlock()
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// dropConn evicts a broken connection: closed and forgotten, never
// returned to the idle stack.
func (c *Client) dropConn(cn *wireConn) {
	c.mu.Lock()
	delete(c.live, cn)
	c.mu.Unlock()
	cn.nc.Close()
	atomic.AddUint64(&c.evicted, 1)
}

// attemptKind classifies one attempt's reply.
type attemptKind int

const (
	kindOK attemptKind = iota
	kindExpired
	kindRetryable // overloaded / brownout / unavailable / safe transport error
	kindBroken    // transport error after consuming response bytes on a non-idempotent op
)

// failRank orders failed attempt kinds for the hedge race: expiry
// outranks broken (the deadline passed; nothing else matters), and
// broken outranks retryable — a broken verdict must be sticky, or a
// hedged twin's retryable failure could trigger a re-send of an op the
// server may already have executed.
func failRank(k attemptKind) int {
	switch k {
	case kindExpired:
		return 2
	case kindBroken:
		return 1
	default:
		return 0
	}
}

type attemptReply struct {
	resp string
	kind attemptKind
}

func classify(resp string) attemptKind {
	switch resp {
	case "ERR deadline":
		return kindExpired
	case "ERR overloaded", "ERR brownout", "ERR unavailable":
		return kindRetryable
	default:
		return kindOK
	}
}

// attempt sends one wire attempt of op (attempt number n, with its D and
// A tokens) on a pooled connection and classifies what came back. It
// blocks for the server's answer, bounded by the attempt's I/O deadline
// and by Close, which closes the connection under it.
func (c *Client) attempt(op string, deadline time.Time, n int) attemptReply {
	atomic.AddUint64(&c.attempts, 1)
	cn, err := c.getConn()
	if err != nil {
		// Dial failure or ErrClosed: nothing was sent, always safe to
		// retry (Close aborts the op via c.done regardless).
		return attemptReply{kind: kindRetryable}
	}
	resp, consumed, err := cn.roundTrip(op, deadline, n, c.ioDeadline(deadline))
	if err != nil {
		// Whatever broke this conn — stall past the I/O deadline, reset,
		// torn response — it never re-enters the pool.
		c.dropConn(cn)
		if consumed && !c.cfg.Idempotent(op) {
			// Response bytes were consumed, so the server started
			// executing a non-idempotent op: re-sending could apply it
			// twice. Terminal.
			return attemptReply{kind: kindBroken}
		}
		return attemptReply{kind: kindRetryable}
	}
	c.putConn(cn)
	return attemptReply{resp: resp, kind: classify(resp)}
}

// startAttempt runs attempt in its own goroutine — a leg of a hedged
// race; the reply lands in the returned 1-buffered channel, so an
// abandoned attempt never blocks and its connection still returns to
// the stack when the server answers (typically promptly with "ERR
// deadline", since the abandoning client's wire deadline travels with
// the attempt).
func (c *Client) startAttempt(op string, deadline time.Time, n int) <-chan attemptReply {
	ch := make(chan attemptReply, 1)
	go func() { ch <- c.attempt(op, deadline, n) }()
	return ch
}

// ioDeadline computes one attempt's wire deadline: the earlier of
// now+IOTimeout and the op deadline; zero (no bound) when neither is
// configured.
func (c *Client) ioDeadline(opDeadline time.Time) time.Time {
	d := opDeadline
	if c.cfg.IOTimeout > 0 {
		if t := time.Now().Add(c.cfg.IOTimeout); d.IsZero() || t.Before(d) {
			d = t
		}
	}
	return d
}

// Do runs one operation (a protocol line without metadata tokens, e.g.
// "GET k") to a terminal outcome: hedged after the adaptive delay when
// enabled, retried with budgeted exponential backoff on retryable
// rejections, expired when the end-to-end deadline passes. Do never
// returns a non-nil error except ErrClosed.
func (c *Client) Do(op string) (Result, error) {
	select {
	case <-c.done:
		return Result{Outcome: Aborted}, ErrClosed
	default:
	}
	start := time.Now()
	var deadline time.Time
	if c.cfg.OpDeadline > 0 {
		deadline = start.Add(c.cfg.OpDeadline)
	}
	atomic.AddUint64(&c.primaries, 1)
	c.budget.OnPrimary()

	var res Result
	backoff := c.cfg.RetryBase
	attempt := 0
	for {
		// An attempt sent past the deadline is doomed before it leaves:
		// give up client-side, exactly like the server would at dequeue.
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			atomic.AddUint64(&c.expired, 1)
			res.Outcome = Expired
			return res, nil
		}
		reply, aborted := c.raceAttempts(op, deadline, &attempt, &res)
		if aborted {
			atomic.AddUint64(&c.aborted, 1)
			res.Outcome = Aborted
			return res, ErrClosed
		}
		switch reply.kind {
		case kindOK:
			res.Resp = reply.resp
			res.Outcome = OK
			res.Latency = time.Since(start)
			c.dig.Record(res.Latency)
			return res, nil
		case kindExpired:
			atomic.AddUint64(&c.expired, 1)
			res.Resp = reply.resp
			res.Outcome = Expired
			return res, nil
		case kindBroken:
			// The server may have executed this non-idempotent op before
			// the transport broke: re-sending risks double execution, so
			// the op settles Errored instead of entering the retry loop.
			atomic.AddUint64(&c.errored, 1)
			res.Outcome = Errored
			return res, nil
		}
		// Retryable: spend budget, back off (cancellably), go again.
		if res.Retries >= c.cfg.RetryMax || !c.budget.Take() {
			res.Resp = reply.resp
			res.Outcome = Rejected
			return res, nil
		}
		res.Retries++
		atomic.AddUint64(&c.retries, 1)
		t := time.NewTimer(c.jitter(backoff))
		select {
		case <-t.C:
		case <-c.done:
			t.Stop()
			atomic.AddUint64(&c.aborted, 1)
			res.Outcome = Aborted
			return res, ErrClosed
		}
		backoff *= 2
		if backoff > c.cfg.RetryCap {
			backoff = c.cfg.RetryCap
		}
	}
}

// raceAttempts runs one primary attempt — inline when hedging is off —
// and, when hedging is enabled and the budget allows, a hedge after the
// adaptive delay. The first successful response wins; a failed leg
// waits for its in-flight twin before reporting (the twin might still
// succeed). When both legs fail, failRank picks the verdict: expired >
// broken > retryable (see failRank for why broken must be sticky).
func (c *Client) raceAttempts(op string, deadline time.Time, attempt *int, res *Result) (attemptReply, bool) {
	n := *attempt
	*attempt++
	res.Attempts++
	if !c.cfg.Hedge {
		// Nothing to race: the attempt runs on the caller's goroutine.
		// Close closes the connection under a blocked read, and an attempt
		// that failed because of it is an abort, not a transport error to
		// retry.
		r := c.attempt(op, deadline, n)
		if r.kind != kindOK {
			select {
			case <-c.done:
				return attemptReply{}, true
			default:
			}
		}
		return r, false
	}
	primary := c.startAttempt(op, deadline, n)

	hedgeTimer := time.NewTimer(c.HedgeDelay())
	defer hedgeTimer.Stop()
	hedgeC := hedgeTimer.C
	var hedge <-chan attemptReply
	pending := 1
	fail := attemptReply{kind: kindRetryable}
	haveFail := false
	for {
		select {
		case <-c.done:
			return attemptReply{}, true
		case <-hedgeC:
			hedgeC = nil
			if !c.budget.Take() {
				continue // denial tallied by the budget; primary rides alone
			}
			atomic.AddUint64(&c.hedges, 1)
			res.Hedged = true
			hedge = c.startAttempt(op, deadline, *attempt)
			*attempt++
			res.Attempts++
			pending++
		case r := <-primary:
			primary = nil
			pending--
			if r.kind == kindOK {
				return r, false
			}
			if !haveFail || failRank(r.kind) > failRank(fail.kind) {
				fail, haveFail = r, true
			}
			if pending == 0 {
				return fail, false
			}
		case r := <-hedge:
			hedge = nil
			pending--
			if r.kind == kindOK {
				atomic.AddUint64(&c.hedgeWins, 1)
				res.HedgeWon = true
				return r, false
			}
			if !haveFail || failRank(r.kind) > failRank(fail.kind) {
				fail, haveFail = r, true
			}
			if pending == 0 {
				return fail, false
			}
		}
	}
}

// jitter draws a full-jitter backoff in [1, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	c.rngMu.Lock()
	j := 1 + time.Duration(c.rng.Intn(int(d)))
	c.rngMu.Unlock()
	return j
}
