// Package liveserver is a working TCP key-value + compression server
// built on the public preemptible runtime — the live analog of the
// paper's "deploy LibPreemptible under an RPC server" study (§V-B) and
// colocation scenario (§V-C). Short KV operations and long compression
// requests share preemptible worker pools; the pool quantum controls
// how aggressively the long requests are preempted.
//
// The server is partitioned into N bulkhead shards (internal/shard):
// each shard owns its own pool, store partition, brownout controller,
// and circuit breakers, behind a rendezvous-hash router resolved at
// parse time. Keys route statically — a key's shard never changes with
// shard health — so a wedged or dead shard is a visible partial
// failure: exactly its keys answer "ERR unavailable" while sibling
// shards keep serving theirs. Keyless work (PING, COMPRESS) routes
// round-robin over healthy shards. An optional supervisor heartbeats
// every shard, drains and rebuilds wedged ones, and retires flapping
// ones permanently (see Config.SuperviseEnabled).
//
// Protocol (one request per line, responses newline-terminated; a
// request is the bytes up to a newline — whatever follows the last one
// when a connection ends was never sent in full and is never executed):
//
//	SET <key> <value>        → OK
//	GET <key>                → VALUE <value> | NOT_FOUND
//	MGET <key> [<key> ...]   → MVALUES <tok> [<tok> ...]
//	COMPRESS <n>             → COMPRESSED <in> <out>   (n kilobytes of work)
//	PING                     → PONG
//	STATS2                   → STATS2 <one-line JSON document> (see metrics.go)
//
// MGET fans out to every shard its keys route to, each leg under the
// request's wire deadline, and reports per-key partial results: one
// token per key, in request order. A hit is "=" + the value, escaped
// exactly as url.QueryEscape escapes it, so values survive
// tokenization; a miss is NOT_FOUND; a key whose shard leg failed
// carries the failure instead — UNAVAILABLE (shard down or breaker
// open), DEADLINE (the leg expired server-side), OVERLOADED, BROWNOUT,
// CANCELLED, or ERROR.
// One dead shard degrades exactly its keys; the rest of the response
// is served normally.
//
// Every command may carry trailing metadata tokens, at most one of
// each, in either order:
//
//	D<micros>  absolute hard deadline, microseconds since the Unix epoch
//	A<n>       attempt number (0/absent = primary, ≥1 = retry or hedge)
//
// A request whose deadline passes while it waits in a pool queue is
// dropped at dequeue — no worker time is spent on work whose caller has
// given up — and one already executing unwinds at its next safepoint;
// either way the client gets "ERR deadline". Malformed tokens answer
// "ERR bad token <tok>", duplicates "ERR duplicate token <tok>". Note
// that a SET value's final word is consumed as metadata when it has
// token shape (D or A followed by digits); clients needing such values
// verbatim must append an explicit A0.
//
// Each connection is served by one goroutine (conn.go): it reads what
// the socket has, handles every complete line in order — parsing bytes
// in place, the pool task appending its response straight into the
// connection's output buffer (request.go) — and writes the responses
// once. Pipelined requests are answered in order and share reads and
// writes. Nobody reads the socket while a request runs, unless it runs
// long: a millisecond in, a watcher starts reading so that a client
// that hangs up cancels the request it is no longer waiting for.
//
// Unknown or malformed requests get "ERR <reason>". Under overload the
// server sheds rather than queues: connections beyond MaxConns and
// requests beyond a shard's inflight share (or older than
// RequestTimeout) answer "ERR overloaded", and lines longer than
// MaxLineBytes answer "ERR line too long" before the connection closes.
//
// Requests carry a service class mirroring the paper's colocation
// contract: KV operations (GET/SET/MGET/PING) are latency-critical
// (LC), COMPRESS is best-effort (BE). Each shard runs its own brownout
// controller (internal/brownout) watching that shard's smoothed load —
// inflight occupancy plus recent fast-rejects against the shard's
// inflight share, and queue delay — and degrades
// class-aware:
//
//   - NORMAL: everyone is admitted up to the inflight share.
//   - BROWNOUT: BE answers "ERR brownout" at the door (retry later,
//     or as LC) and queued BE is evicted from the pool; LC keeps
//     flowing, bypassing the inflight cap — LC floods escalate the
//     controller instead of turning LC away.
//   - SHED: sustained overload BE rejection cannot absorb — every
//     request answers "ERR overloaded" until pressure drains.
//
// "ERR brownout" versus "ERR overloaded" is the client's signal to
// retry soon versus back off hard. Degradation is per shard: a
// COMPRESS flood on one shard browns out that shard alone.
//
// Fault containment rides alongside load protection: a request whose
// task panics is contained by the pool (the worker survives) and
// answers "ERR internal"; a class whose tasks keep panicking trips its
// shard's per-class circuit breaker (internal/breaker) and fast-rejects
// with "ERR unavailable" until recovery probes succeed. Shutdown drains
// gracefully on SIGTERM: in-flight requests finish under a deadline,
// stragglers are cancelled through the pool's cancel-unwind path.
package liveserver

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/brownout"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/preemptible"
)

// Config parameterizes a Server.
type Config struct {
	// Shards partitions the server into this many bulkhead shards
	// (default 1), each with its own pool, store partition, brownout
	// controller, and breakers. Keys route by rendezvous hash; one
	// shard's failure leaves the others' keys fully served.
	Shards int
	// Workers is each shard's preemptible pool size (default 2).
	Workers int
	// Quantum is the pool time slice (default 1ms).
	Quantum time.Duration
	// StoreLogBytes sizes the KV store across all shards, partitioned
	// evenly (default 4 MiB per shard).
	StoreLogBytes int

	// MaxConns bounds concurrently open connections (default 1024;
	// negative = unlimited). Excess connections are shed: they get one
	// "ERR overloaded" line and are closed instead of queuing
	// unboundedly.
	MaxConns int
	// MaxInflight bounds requests admitted at once, queued plus
	// executing, across the whole group; each shard enforces an even
	// share (default 64 × Workers per shard; negative = unlimited).
	// Excess requests fast-reject with "ERR overloaded" without ever
	// touching a pool.
	MaxInflight int
	// RequestTimeout bounds a request's queue wait: a request not
	// picked up by a worker within it is shed — never executed — and
	// answers "ERR overloaded" (0 = no timeout).
	RequestTimeout time.Duration
	// MaxLineBytes bounds one request line (default 1 MiB). A longer
	// line answers "ERR line too long" and the connection is closed:
	// a single huge line must not grow server buffers without limit.
	MaxLineBytes int

	// IdleTimeout, when positive, bounds how long an accepted connection
	// may sit with no inbound bytes and no request in flight before the
	// server closes it — the defense against half-open clients pinning a
	// goroutine and an fd forever (0 = connections may idle without
	// limit, the pre-hardening behavior). A connection waiting on a
	// long-running request is not idle: the timeout is the deadline of
	// the connection loop's read, and the loop reads only with nothing
	// in flight.
	IdleTimeout time.Duration
	// WriteTimeout, when positive, bounds each write of responses (one
	// per batch of pipelined requests): a client that stops draining —
	// half-open, or a zero receive window — fails the write and the
	// connection closes, instead of its goroutine blocking in a send
	// forever (0 = writes block without limit).
	WriteTimeout time.Duration

	// Brownout parameterizes each shard's class-aware degradation
	// controller (zero value = defaults; see internal/brownout). Set
	// BrownoutDisabled to recover the pre-brownout behavior where every
	// class sheds indiscriminately at the caps.
	Brownout         brownout.Config
	BrownoutDisabled bool
	// BrownoutPeriod is the controller's sampling cadence (default
	// 2ms): each tick folds the current pressure into the smoothed load
	// and applies transitions.
	BrownoutPeriod time.Duration
	// BrownoutDelayTarget normalizes the queue-delay signal: the oldest
	// queued arrival's wait divided by this is the controller's
	// DelayRatio (default: RequestTimeout, else 20ms).
	BrownoutDelayTarget time.Duration

	// Breaker parameterizes the per-shard, per-class circuit breakers
	// (zero value = defaults; see internal/breaker): a class whose
	// tasks keep panicking trips its shard's breaker and fast-rejects
	// with "ERR unavailable" until recovery probes succeed. Set
	// BreakerDisabled to admit every class regardless of failures.
	Breaker         breaker.Config
	BreakerDisabled bool

	// Supervise parameterizes the shard supervisor: heartbeat health
	// checks that detect a wedged shard, drain it, rebuild it from a
	// fresh store partition, and re-admit it — with a restart budget
	// that escalates a flapping shard to terminal Dead (see
	// internal/shard). Off unless SuperviseEnabled is set: probes run
	// as real pool tasks and would perturb the exact pool-stat
	// accounting single-shard deployments rely on.
	Supervise        shard.SuperviseConfig
	SuperviseEnabled bool

	// WALDir, when non-empty, enables per-shard durability: shard i
	// write-ahead logs acknowledged SETs under WALDir/shard-<i>, and a
	// restart (supervised rebuild or whole-process crash) recovers each
	// partition from snapshot+log instead of starting empty. A SET is
	// acknowledged "OK" only after its record is fsynced (per WALSync);
	// a SET the log cannot promise answers "ERR wal".
	WALDir string
	// WALSync is the log's durability mode (default: group commit —
	// one fsync covers every append since the last, so the hot path
	// pays amortized not per-op sync cost).
	WALSync wal.SyncMode
	// SnapshotEvery snapshots each shard's partition after this many
	// logged SETs and truncates the covered log (0 = never).
	SnapshotEvery int
	// WALFS overrides the WAL's filesystem (chaos fault injection);
	// nil = the OS.
	WALFS wal.FS
}

// Server serves the protocol over TCP.
type Server struct {
	rt    *preemptible.Runtime
	group *shard.Group

	maxConns     int
	reqTimeout   time.Duration
	maxLineBytes int
	idleTimeout  time.Duration
	writeTimeout time.Duration
	rr           atomic.Uint64 // round-robin cursor for keyless requests

	connWG sync.WaitGroup
	connMu sync.Mutex // guards ln and conns
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed sync.Once
	done   chan struct{}

	// Requests counts protocol requests served, per verb.
	Requests struct {
		Get, Set, MGet, Compress, Ping, Stats, Errors atomic.Uint64
	}
	// The connection-plane counters: events that fire before any shard
	// is chosen — connections shed at accept, over-long lines rejected,
	// connections reaped by Config.IdleTimeout (quiet with nothing in
	// flight) and connections closed because a response write ran out
	// its Config.WriteTimeout against a non-draining client. Every
	// admission counter lives in the shards (shard.ClassCounters);
	// MetricsV2 sums them at read time.
	shedConns, lineTooLong, idleClosed, writeTimeouts atomic.Uint64
}

// New builds a server on the given runtime.
func New(rt *preemptible.Runtime, cfg Config) *Server {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	maxConns := cfg.MaxConns
	if maxConns == 0 {
		maxConns = 1024
	}
	maxLine := cfg.MaxLineBytes
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	// Group-level totals become even per-shard shares; zero keeps the
	// shard defaults (64 × Workers inflight, 4 MiB store — per shard).
	perInflight := cfg.MaxInflight
	if perInflight > 0 {
		perInflight = (perInflight + shards - 1) / shards
	}
	perStore := cfg.StoreLogBytes
	if perStore > 0 && shards > 1 {
		perStore /= shards
		if perStore < 64<<10 {
			perStore = 64 << 10
		}
	}
	scfg := cfg.Supervise
	scfg.Disabled = !cfg.SuperviseEnabled
	s := &Server{
		rt: rt,
		group: shard.NewGroup(rt, shards, shard.Config{
			Workers:             cfg.Workers,
			Quantum:             cfg.Quantum,
			StoreLogBytes:       perStore,
			MaxInflight:         perInflight,
			RequestTimeout:      cfg.RequestTimeout,
			Brownout:            cfg.Brownout,
			BrownoutDisabled:    cfg.BrownoutDisabled,
			BrownoutPeriod:      cfg.BrownoutPeriod,
			BrownoutDelayTarget: cfg.BrownoutDelayTarget,
			Breaker:             cfg.Breaker,
			BreakerDisabled:     cfg.BreakerDisabled,
			WALDir:              cfg.WALDir,
			WALSync:             cfg.WALSync,
			SnapshotEvery:       cfg.SnapshotEvery,
			WALFS:               cfg.WALFS,
		}, scfg),
		maxConns:     maxConns,
		reqTimeout:   cfg.RequestTimeout,
		maxLineBytes: maxLine,
		idleTimeout:  cfg.IdleTimeout,
		writeTimeout: cfg.WriteTimeout,
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
	}
	return s
}

// Serve accepts connections on ln until Close or Shutdown, then
// returns nil; any other listener failure is returned. A server already
// closed when Serve starts closes ln itself — Close could not have seen
// it.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	select {
	case <-s.done:
		ln.Close()
		return nil
	default:
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.connMu.Unlock()
			s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound address (after Serve started).
func (s *Server) Addr() net.Addr {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, waits for in-flight connections, and shuts the
// shard group down.
func (s *Server) Close() {
	s.closed.Do(func() {
		close(s.done)
		// Force open connections closed: their goroutines block in Read
		// otherwise (and a request parked in a pool is cancelled through
		// its watcher).
		s.connMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		s.group.Close()
	})
}

// Shutdown drains the server gracefully — the SIGTERM path. Accepting
// stops immediately; each open connection finishes the request it is
// serving and stops once that response is written (a connection loop
// checks s.done after every request; one blocked in Read is kicked out
// with a past read deadline, which the watcher of a request in flight
// ignores) and connections get until ctx's deadline before being
// force-closed — that ends the read side under the watchers and so
// cancels what is still queued or executing; finally every shard drains
// under the same deadline, cancelling stragglers through the
// cancel-unwind path. Returns nil on a complete drain, ctx.Err() if the deadline
// forced any teardown. Concurrent with Close: whichever runs first
// wins, the other is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.closed.Do(func() {
		close(s.done)
		s.connMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.SetReadDeadline(longAgo) //nolint:errcheck
		}
		s.connMu.Unlock()
		connsDone := make(chan struct{})
		go func() {
			s.connWG.Wait()
			close(connsDone)
		}()
		select {
		case <-connsDone:
		case <-ctx.Done():
			err = ctx.Err()
			s.connMu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.connMu.Unlock()
			<-connsDone
		}
		if derr := s.group.Drain(ctx); err == nil {
			err = derr
		}
	})
	return err
}

// Group exposes the shard group (per-shard health, counters, restart
// budget) for observability and tests.
func (s *Server) Group() *shard.Group { return s.group }

// Breaker exposes shard 0's breaker for the class (nil when disabled) —
// the single-shard view; multi-shard callers go through Group.
func (s *Server) Breaker(class preemptible.Class) *breaker.Breaker {
	return s.group.Shard(0).Breaker(class)
}

// PoolStats aggregates scheduling statistics across every shard and
// every shard generation (restarts lose nothing).
func (s *Server) PoolStats() preemptible.PoolStats { return s.group.PoolStats() }

// Brownout exposes shard 0's degradation controller (state history,
// smoothed load) — the single-shard view; multi-shard callers go
// through Group.
func (s *Server) Brownout() *brownout.Controller { return s.group.Shard(0).Brownout() }

// BrownoutState reports the most degraded shard's admission state —
// with one shard, exactly that shard's controller view.
func (s *Server) BrownoutState() brownout.State {
	worst := brownout.Normal
	for i := 0; i < s.group.N(); i++ {
		if st := s.group.Shard(i).BrownoutState(); st > worst {
			worst = st
		}
	}
	return worst
}

// inflightTotal sums currently admitted requests across shards (tests).
func (s *Server) inflightTotal() int64 {
	var n int64
	for i := 0; i < s.group.N(); i++ {
		n += s.group.Shard(i).Inflight()
	}
	return n
}

// errLine is the fast-reject response for the given brownout state:
// "ERR brownout" tells the client to retry soon (or retry as LC);
// "ERR overloaded" tells it to back off hard.
func errLine(st brownout.State) string {
	if st == brownout.Brownout {
		return "ERR brownout"
	}
	return "ERR overloaded"
}

// shedConn is the accept-side load shedder: the connection gets one
// fast rejection line — reflecting the current brownout state — and is
// closed, so clients see an explicit rejection instead of an unbounded
// accept queue.
func (s *Server) shedConn(conn net.Conn) {
	s.shedConns.Add(1)
	conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	io.WriteString(conn, errLine(s.BrownoutState())+"\n")         //nolint:errcheck
	conn.Close()
}
