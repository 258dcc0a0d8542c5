package liveserver

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/bejob"
	"repro/internal/mica"
	"repro/internal/shard"
	"repro/preemptible"
)

// handler runs request lines one at a time and appends each response
// (without its newline) to out. Everything a request needs between parse
// and reply lives here and is reused by the next one: the field slice,
// the SET value scratch, the output buffer, and the record of the
// request in flight that the pool task — bound once, not a closure per
// request — reads. A connection embeds one for its lifetime; HandleLine
// builds one per call.
type handler struct {
	s      *Server
	gone   <-chan struct{} // closed when the client is known to be gone (nil: not tracked)
	fields [][]byte
	out    []byte
	task   preemptible.Task // h.exec

	// The request in flight: written by parse, read by do and by exec.
	verb       verb
	meta       reqMeta
	sh         *shard.Shard
	key, value []byte
	keys       [][]byte // MGET's
	kb         int

	val []byte // a SET value whose white-space runs had to be collapsed

	// MGET's, kept for the next one (see mget).
	legs   []mgetLeg // one per shard, made by the first MGET
	tokens [][]byte  // one per key: "=" and the escaped value, NOT_FOUND, or a failure token
	wg     sync.WaitGroup
}

// HandleLine processes one protocol line exactly as a connection
// would — parse, route, schedule, encode — with no disconnect tracking,
// and returns the response line. It is the in-process entry the
// benchmark ladder and the hot-path benchmarks use to drive the full
// request path without TCP: a thin wrapper that pays, per call, for what
// a connection sets up once (the handler, its bound task, its buffers)
// and for the copy of the line in and of the response out.
func (s *Server) HandleLine(line string) string { return s.handleRequest(line, nil) }

// handleRequest is HandleLine with disconnect tracking: gone, when
// closed, marks the client as disconnected and in-flight pool work for
// the request is cancelled.
func (s *Server) handleRequest(line string, gone <-chan struct{}) string {
	// One buffer: the line, and behind it room for a short response.
	buf := append(make([]byte, 0, len(line)+64), line...)
	h := &handler{s: s, gone: gone, fields: make([][]byte, 0, 8), out: buf[len(line):]}
	h.task = h.exec
	h.handle(buf)
	return string(h.out)
}

// ParseLine exercises the request-parse path alone: field split plus
// metadata-token stripping, no routing or scheduling. It returns the
// remaining fields and the protocol error line ("" when valid). The
// server parses bytes; this wrapper copies the string in, runs the same
// tokenizer, and materialises the fields as strings again, so the
// benchmark ladder's parse row now includes that conversion (two copies
// the connection path does not make).
func ParseLine(line string) (fields []string, errLine string) {
	b := []byte(line)
	bf, _, errLine := stripMeta(splitFields(make([][]byte, 0, 16), b))
	if errLine != "" {
		return nil, errLine
	}
	fields = make([]string, len(bf))
	for i, f := range bf {
		off := offsetIn(b, f)
		fields[i] = line[off : off+len(f)]
	}
	return fields, ""
}

// asciiSpace is the white space strings.Fields knows below 0x80.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space into subslices of
// line, appended to fields[:0]. White space is what strings.Fields —
// the parser this replaced, kept in the tests as the reference — calls
// white space: unicode.IsSpace, so U+0085, U+00A0, U+2000… separate
// fields too, and a byte that is not valid UTF-8 does not.
func splitFields(fields [][]byte, line []byte) [][]byte {
	fields = fields[:0]
	start := -1 // where the field being scanned began; -1 between fields
	for i := 0; i < len(line); {
		c, size := line[i], 1
		space := c < utf8.RuneSelf && asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			fields = append(fields, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	return fields
}

// offsetIn reports where field begins in line. splitFields cuts fields
// as line[a:b], whose capacity runs to the end of line's.
func offsetIn(line, field []byte) int { return cap(line) - cap(field) }

// reqMeta is one request's scheduling metadata, parsed from trailing
// wire tokens: deadline is the hard completion deadline (zero = none),
// attempt the client's attempt number (0 = primary).
type reqMeta struct {
	deadline time.Time
	attempt  int64
}

// isMetaToken reports whether f has the shape of a trailing metadata
// token: 'D' or 'A' followed by an optionally signed run of digits.
// Shape alone claims the field — a malformed value ("D-5") is then a
// protocol error, not data, so a client never silently loses a
// deadline to a typo.
func isMetaToken(f []byte) bool {
	if len(f) < 2 || (f[0] != 'D' && f[0] != 'A') {
		return false
	}
	rest := f[1:]
	if rest[0] == '-' || rest[0] == '+' {
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// stripMeta strips trailing metadata tokens — at most one D and one A,
// in either order — off a request's fields. It returns the remaining
// fields and the parsed metadata, or a non-empty protocol error line
// for a malformed or duplicate token. D is strict: it must be a
// positive in-range microsecond timestamp (negative, zero, and
// overflowing values are rejected); A must be non-negative.
func stripMeta(fields [][]byte) ([][]byte, reqMeta, string) {
	var meta reqMeta
	var haveD, haveA bool
	for len(fields) > 0 {
		f := fields[len(fields)-1]
		if !isMetaToken(f) {
			break
		}
		// strconv copies its argument into the error it returns, so the
		// conversion stays on the stack.
		v, err := strconv.ParseInt(string(f[1:]), 10, 64)
		if f[0] == 'D' {
			if haveD {
				return nil, reqMeta{}, "ERR duplicate token " + string(f)
			}
			haveD = true
			if err != nil || v <= 0 {
				return nil, reqMeta{}, "ERR bad token " + string(f)
			}
			meta.deadline = time.UnixMicro(v)
		} else {
			if haveA {
				return nil, reqMeta{}, "ERR duplicate token " + string(f)
			}
			haveA = true
			if err != nil || v < 0 {
				return nil, reqMeta{}, "ERR bad token " + string(f)
			}
			meta.attempt = v
		}
		fields = fields[:len(fields)-1]
	}
	return fields, meta, ""
}

// verb is a request's command.
type verb uint8

const (
	verbUnknown verb = iota
	verbPing
	verbStats2
	verbGet
	verbSet
	verbMGet
	verbCompress
)

var verbs = map[string]verb{
	"PING": verbPing, "STATS2": verbStats2, "GET": verbGet, "SET": verbSet, "MGET": verbMGet, "COMPRESS": verbCompress,
}

// matchVerb names the command in a request's first field, in any case.
// Verbs have always been matched through strings.ToUpper, and Unicode
// upper-casing can land on ASCII (ſ → S, ı → I), so only an ASCII field
// short enough to be a verb is upper-cased here, in place on the stack.
func matchVerb(f []byte) verb {
	var buf [len("COMPRESS")]byte
	if len(f) > len(buf) {
		return verbs[strings.ToUpper(string(f))]
	}
	for i, c := range f {
		if c >= utf8.RuneSelf {
			return verbs[strings.ToUpper(string(f))]
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return verbs[string(buf[:len(f)])]
}

// keyless picks the shard for requests with no placement constraint
// (PING, COMPRESS): round-robin over healthy shards, falling back to
// the raw cursor when every shard is down — the request then settles
// through the normal Unavailable path with full accounting.
func (s *Server) keyless() int {
	i := int(s.rr.Add(1)) % s.group.N()
	if h := s.group.NextHealthy(i); h >= 0 {
		return h
	}
	return i
}

// handle runs one request line and appends the response to h.out. line
// is only read, and only until handle returns.
func (h *handler) handle(line []byte) {
	if h.parse(line) {
		h.do()
	}
}

// parse reads one request line into the handler's request record and
// reports whether it has work for a pool. One that has none is answered
// here: a malformed request, and STATS2, which is served inline, off the
// pools, so shard health and brownout state stay observable even while
// everything else sheds.
func (h *handler) parse(line []byte) bool {
	s := h.s
	h.fields = splitFields(h.fields, line)
	fields, meta, metaErr := stripMeta(h.fields)
	if metaErr != "" {
		return h.reject(metaErr)
	}
	if len(fields) == 0 {
		return h.reject("ERR empty request")
	}
	h.verb, h.meta = matchVerb(fields[0]), meta
	switch h.verb {
	case verbPing:
	case verbStats2:
		s.Requests.Stats.Add(1)
		h.out = append(h.out, s.statsV2Line()...)
		return false
	case verbGet:
		if len(fields) != 2 {
			return h.reject("ERR GET <key>")
		}
		h.key = fields[1]
	case verbSet:
		if len(fields) < 3 {
			return h.reject("ERR SET <key> <value>")
		}
		h.key, h.value = fields[1], h.joinValue(line, fields[2:])
	case verbMGet:
		if len(fields) < 2 {
			return h.reject("ERR MGET <key> [<key> ...]")
		}
		h.keys = fields[1:]
	case verbCompress:
		if len(fields) != 2 {
			return h.reject("ERR COMPRESS <kilobytes>")
		}
		kb, err := strconv.Atoi(string(fields[1]))
		if err != nil || kb <= 0 || kb > 1024 {
			return h.reject("ERR COMPRESS wants 1..1024 kilobytes")
		}
		h.kb = kb
	default:
		h.reject("ERR unknown command ")
		h.out = append(h.out, fields[0]...)
		return false
	}
	return true
}

// do runs the parsed request through its shard. Routing is resolved
// here: keyed requests (GET/SET) go to the rendezvous shard of their
// key, MGET fans out per shard, keyless ones round-robin over healthy
// shards. KV operations run as ClassLC, COMPRESS as ClassBE.
func (h *handler) do() {
	s := h.s
	switch h.verb {
	case verbPing:
		h.run(s.keyless(), preemptible.ClassLC)
		s.Requests.Ping.Add(1)
	case verbGet:
		h.run(s.group.Route(h.key), preemptible.ClassLC)
		s.Requests.Get.Add(1)
	case verbSet:
		h.run(s.group.Route(h.key), preemptible.ClassLC)
		s.Requests.Set.Add(1)
	case verbMGet:
		s.Requests.MGet.Add(1)
		h.mget()
	case verbCompress:
		h.run(s.keyless(), preemptible.ClassBE)
		s.Requests.Compress.Add(1)
	}
}

// reject answers a request that never reaches a shard; it returns false
// for parse to return.
func (h *handler) reject(msg string) bool {
	h.s.Requests.Errors.Add(1)
	h.out = append(h.out, msg...)
	return false
}

// joinValue is a SET's value: its fields joined by single spaces. When
// that is how they already lie in line — the usual case — the value is
// sliced out of it; only a run of white space (or a tab) between two
// words costs a copy into the handler's scratch.
func (h *handler) joinValue(line []byte, words [][]byte) []byte {
	start := offsetIn(line, words[0])
	end := start + len(words[0])
	for _, w := range words[1:] {
		if line[end] != ' ' || offsetIn(line, w) != end+1 {
			h.val = append(h.val[:0], words[0]...)
			for _, w := range words[1:] {
				h.val = append(append(h.val, ' '), w...)
			}
			return h.val
		}
		end += 1 + len(w)
	}
	return line[start:end]
}

// run pushes the request in flight through shard idx's admission path
// (see shard.Shard.Do for the gate order, and for the counting: the
// shard tallies every outcome); a request that was shed, cancelled or
// expired answers its protocol error line instead of whatever its task
// had appended. An already-past deadline is deliberately NOT
// fast-rejected at admission: the request is submitted and expires at
// dequeue, so the shard's per-class expiry counters and the pools'
// agree exactly.
func (h *handler) run(idx int, class preemptible.Class) {
	h.sh = h.s.group.Shard(idx)
	mark := len(h.out)
	// The task appends to h.out from a pool goroutine while this one is
	// parked in Do. No lock is needed because Do returns only after the
	// task has settled — Pool.SubmitWaitWithOptions waits out a cancelled
	// or expired task too — so the body never runs once out is touched
	// here again.
	res := h.s.group.Do(idx, class, h.task, shard.DoOptions{Deadline: h.meta.deadline, Attempt: h.meta.attempt, Gone: h.gone})
	if msg := settle(res); msg != "" {
		h.out = append(h.out[:mark], msg...)
	}
}

// exec is the pool task of every single-shard verb: it does the
// request's work and appends the response to h.out.
func (h *handler) exec(ctx *preemptible.Ctx) {
	switch h.verb {
	case verbPing:
		h.out = append(h.out, "PONG"...)
	case verbGet:
		mark := len(h.out)
		h.out = append(h.out, "VALUE "...)
		var hit bool
		if h.out, hit = h.sh.StoreAppendGet(h.out, h.key); !hit {
			h.out = append(h.out[:mark], "NOT_FOUND"...)
		}
	case verbSet:
		// The ack gate: "OK" means the record is applied AND durable
		// (logged + fsynced when a WAL is configured). A write the
		// log cannot promise answers "ERR wal"; one the log refused
		// never reached the store.
		ok, err := h.sh.DurableSet(h.key, h.value)
		switch {
		case err != nil:
			h.out = append(h.out, "ERR wal"...)
		case ok:
			h.out = append(h.out, "OK"...)
		default:
			h.out = append(h.out, "ERR value too large"...)
		}
	case verbCompress:
		eng := h.sh.Engine()
		block := bejob.MakeBlock(1024, uint64(h.kb))
		var in, out int
		for i := 0; i < h.kb; i++ {
			n, err := eng.CompressBlock(block)
			if err != nil {
				h.out = append(append(h.out, "ERR "...), err.Error()...)
				return
			}
			in += len(block)
			out += n
			ctx.Checkpoint() // safepoint between kilobytes
		}
		h.out = append(h.out, "COMPRESSED "...)
		h.out = strconv.AppendInt(h.out, int64(in), 10)
		h.out = append(h.out, ' ')
		h.out = strconv.AppendInt(h.out, int64(out), 10)
	}
}

// settle maps one shard disposition to its response line ("" for OK).
func settle(res shard.Result) string {
	switch res.Outcome {
	case shard.OK:
		return ""
	case shard.RejectedShed, shard.RejectedInflight, shard.Timeout:
		return "ERR overloaded"
	case shard.RejectedBrownout:
		return "ERR brownout"
	case shard.Unavailable:
		return "ERR unavailable"
	case shard.CancelledQueued, shard.CancelledExecuting:
		return "ERR cancelled"
	case shard.ExpiredQueued, shard.ExpiredExecuting:
		return "ERR deadline"
	case shard.Evicted:
		return errLine(res.BState)
	}
	return "ERR internal" // shard.Failed: the task panicked
}

// failToken maps a failed MGET shard leg to its per-key result token.
func failToken(o shard.Outcome) string {
	switch o {
	case shard.Unavailable:
		return "UNAVAILABLE"
	case shard.ExpiredQueued, shard.ExpiredExecuting:
		return "DEADLINE"
	case shard.RejectedShed, shard.RejectedInflight, shard.Timeout:
		return "OVERLOADED"
	case shard.RejectedBrownout, shard.Evicted:
		return "BROWNOUT"
	case shard.CancelledQueued, shard.CancelledExecuting:
		return "CANCELLED"
	default:
		return "ERROR"
	}
}

// mget is the multi-key fan-out: keys are grouped by rendezvous
// shard, each shard gets one LC leg carrying the request's wire
// deadline, and the legs run concurrently. Results are per key, in
// request order, with explicit partial failure: a leg that cannot run —
// its shard is Restarting/Dead, shedding, draining, or the leg expired
// — fails only its own keys with a failure token while every other
// leg's keys come back with real values. Each leg is one shard.Do, so
// the admission counters see MGET as N(shards touched) requests, not
// one.
//
// Nothing here allocates once the connection has served an MGET as wide
// and as fat: the legs, the token buffers and the WaitGroup are the
// handler's, and each leg writes only its own keys' tokens.
func (h *handler) mget() {
	if h.legs == nil {
		h.legs = make([]mgetLeg, h.s.group.N())
		for i := range h.legs {
			l := &h.legs[i]
			l.h, l.sh = h, h.s.group.Shard(i)
			l.task, l.view, l.spawn = l.exec, l.read, l.run
		}
	}
	for i := range h.legs {
		h.legs[i].kidx = h.legs[i].kidx[:0]
	}
	for i, k := range h.keys {
		l := &h.legs[h.s.group.Route(k)]
		l.kidx = append(l.kidx, i)
	}
	h.tokens = slices.Grow(h.tokens[:0], len(h.keys))[:len(h.keys)]
	for i := range h.legs {
		if l := &h.legs[i]; len(l.kidx) > 0 {
			h.wg.Add(1)
			go l.spawn()
		}
	}
	h.wg.Wait()
	h.out = append(h.out, "MVALUES"...)
	for _, tok := range h.tokens {
		h.out = append(append(h.out, ' '), tok...)
	}
	// One MGET of fat values must not stay pinned for the connection's
	// lifetime.
	if h.mgetRetained() > flushBytes {
		clear(h.tokens[:cap(h.tokens)])
		for i := range h.legs {
			h.legs[i].scratch = nil
		}
	}
}

// mgetLeg is one shard's part of a connection's MGETs. Its func fields
// are its methods, bound once: task is the pool task, view its body
// under the store lock, and spawn the leg's goroutine — a go statement
// on a bound func value allocates nothing, on a method call it
// allocates a closure.
type mgetLeg struct {
	h       *handler
	sh      *shard.Shard
	kidx    []int                // which of the request's keys route here
	scratch []byte               // one value, copied out of the store
	task    preemptible.Task     // l.exec
	view    func(st *mica.Store) // l.read
	spawn   func()               // l.run
}

// run is one leg's goroutine. It calls the shard's Do with no frame in
// between: a leg starts on a 2 KiB stack, and the wait at the bottom of
// Do sits within a frame or two of making every leg grow it. Do returns
// only after the task has settled, so a failure token written here never
// races the task's writes to the same buffers.
func (l *mgetLeg) run() {
	h := l.h
	res := l.sh.Do(preemptible.ClassLC, l.task, shard.DoOptions{Deadline: h.meta.deadline, Attempt: h.meta.attempt, Gone: h.gone})
	if res.Outcome != shard.OK {
		tok := failToken(res.Outcome)
		for _, i := range l.kidx {
			h.tokens[i] = append(h.tokens[i][:0], tok...)
		}
	}
	h.wg.Done()
}

func (l *mgetLeg) exec(*preemptible.Ctx) { l.sh.StoreView(l.view) }

// read is the task's body under the store lock: each of the leg's keys
// gets "=" and its escaped value, or NOT_FOUND.
func (l *mgetLeg) read(st *mica.Store) {
	keys, tokens := l.h.keys, l.h.tokens
	for _, i := range l.kidx {
		var hit bool
		if l.scratch, hit = st.AppendGet(l.scratch[:0], keys[i]); hit {
			tokens[i] = appendQueryEscape(append(tokens[i][:0], '='), l.scratch)
		} else {
			tokens[i] = append(tokens[i][:0], "NOT_FOUND"...)
		}
	}
}

// mgetRetained is how many bytes of token and value buffers the handler
// keeps between MGETs. (The index slices grow with the line, as the
// connection's input buffer does, and are not counted.)
func (h *handler) mgetRetained() int {
	n := 0
	for _, tok := range h.tokens[:cap(h.tokens)] {
		n += cap(tok)
	}
	for i := range h.legs {
		n += cap(h.legs[i].scratch)
	}
	return n
}

// queryUnreserved marks the bytes url.QueryEscape leaves as they are.
var queryUnreserved = func() (t [256]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~'
	}
	return t
}()

// appendQueryEscape appends src to dst escaped byte for byte as
// url.QueryEscape escapes it: unreserved bytes as they are, a space as
// '+', and every other byte as %XX in upper-case hex. A buffer too small
// for src grows once before the loop, not once per doubling in it.
func appendQueryEscape(dst, src []byte) []byte {
	const hex = "0123456789ABCDEF"
	dst = slices.Grow(dst, len(src))
	for _, c := range src {
		switch {
		case queryUnreserved[c]:
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', hex[c>>4], hex[c&15])
		}
	}
	return dst
}
