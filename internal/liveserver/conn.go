package liveserver

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"
)

const (
	// watchGrace is how long a request may run before its connection's
	// socket is watched for a disconnect. It is a constant, not a knob:
	// anything from "longer than a request that did not park" to "short
	// against work worth cancelling" behaves the same, and a millisecond
	// is both — as well as the finest a timer fires here (effective
	// granularity on the benchmark VM is ~1.2 ms). DESIGN.md "Connection
	// loop" has the share of each benchmark workload's requests that
	// outlive it: under 0.2 % of KV requests, 5 % on colocate.
	watchGrace = time.Millisecond
	// flushBytes is the output size past which a pipeline's responses are
	// written before its remaining requests are handled, so a batch of
	// fat values cannot grow the output buffer without limit.
	flushBytes = 64 << 10
	// readBytes is a connection's first read buffer; it doubles, up to
	// Config.MaxLineBytes, whenever a read fills it.
	readBytes = 4 << 10
)

// errLineTooLong ends a connection whose line outgrew
// Config.MaxLineBytes; errStopping one whose server is shutting down.
var (
	errLineTooLong = errors.New("liveserver: line too long")
	errStopping    = errors.New("liveserver: server stopping")
)

// longAgo is the read deadline that kicks a blocked Read out.
var longAgo = time.Unix(1, 0)

// conn is one connection, served by one goroutine: read what the socket
// has, handle every complete line, write the responses once, repeat.
//
// in[r:w] is input read and not yet handled. The serving goroutine owns
// all of it, except between the watch timer firing and reclaim returning,
// when the watcher — and nobody else — reads the socket and appends at
// in[w:]; the request then in flight only reads below r.
type conn struct {
	handler
	nc   net.Conn
	in   []byte
	r, w int

	// Disconnect detection, for requests that park. watch runs only when
	// timer fires, watchGrace into a request; closed is what it closes
	// (it is the handler's gone) when the read side ends under it, kicked
	// tells it that the past read deadline it ran into is reclaim's, and
	// watched carries its exit, with that error, back to the loop.
	timer   *time.Timer
	closed  chan struct{}
	kicked  atomic.Bool
	watched chan error
}

// serveConn serves nc until its read side ends, a write fails, or the
// server stops.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close()
	size := readBytes
	if size > s.maxLineBytes {
		size = s.maxLineBytes
	}
	c := &conn{
		nc:      nc,
		in:      make([]byte, size),
		closed:  make(chan struct{}),
		watched: make(chan error, 1),
	}
	c.handler = handler{s: s, gone: c.closed}
	c.task = c.exec
	err := c.serve()
	// A too-long line is a protocol violation the client should hear
	// about before the close, and an idle-reaped connection is tallied;
	// anything else (reset, EOF, shutdown, a failed write) just closes.
	switch {
	case err == errLineTooLong:
		s.lineTooLong.Add(1)
		s.Requests.Errors.Add(1)
		// A fresh write deadline: an earlier response's may have long
		// passed, and this line should not block on a dead client.
		nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		io.WriteString(nc, "ERR line too long\n")                   //nolint:errcheck
		// Drain the unread remainder of the over-long line so the close
		// sends FIN, not RST — otherwise the error line may never reach
		// the client.
		nc.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		io.Copy(io.Discard, nc)                                   //nolint:errcheck
	case errors.Is(err, os.ErrDeadlineExceeded) && !s.stopping():
		s.idleClosed.Add(1)
	}
}

// stopping reports whether Close or Shutdown has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// serve is the connection loop. It returns the error that ended the
// read side, or nil when it stopped after a request or a write failed.
//
// Reading is newline-strict: only bytes up to a '\n' are ever a request.
// Whatever follows the last newline when the read side ends — EOF, reset,
// timeout — is a line the client never finished sending, and is dropped.
func (c *conn) serve() error {
	for {
		for {
			i := bytes.IndexByte(c.in[c.r:c.w], '\n')
			if i < 0 {
				break
			}
			line := c.in[c.r : c.r+i]
			c.r += i + 1
			gone := false
			if c.parse(line) {
				// Only a request with work for a pool can park, so only it
				// is worth a watcher.
				c.arm()
				c.do()
				gone = !c.timer.Stop() && c.reclaim() != nil
			}
			c.out = append(c.out, '\n')
			// Shutdown lets a connection finish the request it is serving,
			// no more; a client the watcher saw leave gets nothing further
			// executed either.
			if gone || c.s.stopping() {
				c.flush()
				return nil
			}
			if len(c.out) >= flushBytes && !c.flush() {
				return nil
			}
		}
		if !c.flush() {
			return nil
		}
		if err := c.fill(); err != nil {
			return err
		}
	}
}

// arm starts the grace period of the request about to run: watch runs if
// it is still running watchGrace from now. A request that does not park
// costs a timer Reset and a Stop, and wakes nobody.
func (c *conn) arm() {
	if c.timer == nil {
		c.timer = time.AfterFunc(watchGrace, c.watch)
		return
	}
	c.timer.Reset(watchGrace)
}

// watch reads the socket while the request in flight is parked in a
// pool, so that a client that hangs up — or a Close, or Shutdown giving
// up on the drain — cancels it: a read error closes gone. Pipelined bytes
// that arrive meanwhile go where the loop would have put them and are
// handled, in order, after the request. A full buffer ends the watch
// early (detection is best-effort under deep pipelining).
//
// A read that times out is not a disconnect. reclaim's past deadline
// ends the watch. Any other is not the watcher's — Shutdown's kick is
// meant for loops blocked in fill (this one will see s.done by itself
// once its request returns), and the idle deadline of the last fill is
// not for a connection with a request in flight — so the watcher clears
// it and reads on: the request stays cancellable for as long as it
// runs. The clear can land on top of a reclaim kick that raced it;
// kicked, which reclaim sets before it kicks, is looked at again before
// the next read.
func (c *conn) watch() {
	var err error
	for err == nil && c.w < len(c.in) && !c.kicked.Load() {
		var n int
		n, err = c.nc.Read(c.in[c.w:])
		c.w += n
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = nil
			if !c.kicked.Load() {
				c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck
			}
		}
	}
	if err != nil {
		close(c.closed)
	}
	c.watched <- err
}

// reclaim takes the socket back from the watcher after the request it
// watched has returned: kick its Read out with a past deadline, wait for
// it, and report the error that ended the read side under it, if one
// did. Clearing the deadline afterwards cannot lose a Shutdown kick: the
// loop looks at s.done, closed before that kick, before it reads again.
func (c *conn) reclaim() error {
	c.kicked.Store(true)
	c.nc.SetReadDeadline(longAgo) //nolint:errcheck
	err := <-c.watched
	c.kicked.Store(false)
	c.nc.SetReadDeadline(time.Time{}) //nolint:errcheck
	return err
}

// fill blocks until the socket has more input, making room first: handled
// bytes are dropped, and a buffer that is full of one unfinished line
// doubles, up to MaxLineBytes. With Config.IdleTimeout the read carries
// a deadline — reads happen only with nothing in flight, so a request in
// flight is never idle.
func (c *conn) fill() error {
	s := c.s
	c.w = copy(c.in, c.in[c.r:c.w])
	c.r = 0
	if c.w == len(c.in) {
		if c.w >= s.maxLineBytes {
			return errLineTooLong
		}
		size := 2 * len(c.in)
		if size > s.maxLineBytes {
			size = s.maxLineBytes
		}
		c.in = append(make([]byte, 0, size), c.in...)[:size]
	}
	if s.idleTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(s.idleTimeout)) //nolint:errcheck
	}
	// Checked after the deadline is set: Shutdown closes done and then
	// kicks every connection with a past read deadline, so either its
	// kick lands on top of the deadline above or this sees done.
	if s.stopping() {
		return errStopping
	}
	n, err := c.nc.Read(c.in[c.w:])
	c.w += n
	if n > 0 {
		return nil // an error that came with bytes comes again without them
	}
	return err
}

// flush writes the responses gathered so far, under Config.WriteTimeout,
// and reports whether the connection is still good.
func (c *conn) flush() bool {
	if len(c.out) == 0 {
		return true
	}
	if c.s.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.s.writeTimeout)) //nolint:errcheck
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.s.writeTimeouts.Add(1)
	}
	return err == nil
}
