package main

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/mica"
	"repro/internal/sim"
)

// Every workload draws keys from the same space: mica.KeyForRank(0..9999),
// Zipf 0.99 — the paper's MICA setup at a size whose whole working set
// fits the store, because the store has no slower tier to fall back to.
const (
	numKeys  = 10000
	zipfSkew = 0.99
	// mgetPool is how many distinct MGET lines a stream draws from. The
	// lines are interned so a 30 k ops/s stream does not hold 30 k
	// distinct 150-byte strings per second of run.
	mgetPool = 1 << 15
)

// workload is one server shape plus one traffic mix.
type workload struct {
	name, why string

	shards, workers int
	quantum         time.Duration
	durable         bool // WAL on a scratch dir (pageCacheFS), group commit, snapshots

	storeMiB   int // circular log per shard; see storeLogBytes
	valueBytes int
	setPct     int // share of LC ops that are SETs, percent
	mgetKeys   int // > 0: every LC op is an MGET of this many keys
	beKB       int // > 0: the last connection issues COMPRESS beKB (BE class)

	// warmup is a fixed LC op COUNT (not a duration) run before the timed
	// window, so set-up time scales with the speed of the program. It is
	// ~1.5 s of traffic on every workload, hence smaller on colocate.
	warmup int

	// lcRateCap sizes the pre-generated streams: ops/s one LC connection
	// is assumed never to exceed (≈3× the rate measured when the
	// benchmark was defined). A run that exhausts its stream fails loudly
	// instead of wrapping, because a wrapped stream would replay stale
	// SET versions.
	lcRateCap int
}

var workloads = []workload{
	{
		name:   "kv_read",
		why:    "Smallest messages (95/5 GET/SET, 32 B): tailclient, wire, parse, admission and Launch are nearly the whole request; one shard, so every request meets the same locks.",
		shards: 1, workers: 2, quantum: 500 * time.Microsecond,
		storeMiB: 64, valueBytes: 32, setPct: 5, warmup: 20000, lcRateCap: 90000,
	},
	{
		name:   "kv_durable",
		why:    "Same request path with writes beside reads (50/50, 128 B, WAL group commit minus the device's fsync, snapshot every 20000): append, commit hand-offs and snapshot stalls show.",
		shards: 1, workers: 2, quantum: 500 * time.Microsecond, durable: true,
		storeMiB: 256, valueBytes: 128, setPct: 50, warmup: 20000, lcRateCap: 75000,
	},
	{
		name:   "colocate",
		why:    "Paper section V-C head-of-line case: one worker, LC GET/SET beside BE COMPRESS 64; quantum expiry, preempt, requeue and resume set LC tail and BE throughput.",
		shards: 1, workers: 1, quantum: 500 * time.Microsecond,
		storeMiB: 64, valueBytes: 32, setPct: 5, beKB: 64, warmup: 2000, lcRateCap: 12000,
	},
	{
		name:   "mget_fanout",
		why:    "MGET of 8 Zipf keys over 4 shards (256 B values): one request waits for its slowest shard leg; per-leg admission and ~2 KiB of escaped encoding dominate.",
		shards: 4, workers: 2, quantum: 500 * time.Microsecond,
		storeMiB: 64, valueBytes: 256, mgetKeys: 8, warmup: 20000, lcRateCap: 45000,
	},
}

// storeLogBytes is one shard's circular log: large enough that the lossy
// log never wraps inside a 20 s run, so NOT_FOUND on a preloaded key is a
// failure, never an eviction. kv_durable writes ~4 MB/s of SETs per
// connection and needs four times the others' 64 MiB.
func (w workload) storeLogBytes() int { return w.storeMiB << 20 }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opMGet
	opCompress
)

// op is one pre-generated request, kept to 12 bytes so a stream sized for
// 3× the expected rate stays small next to the store.
type op struct {
	kind opKind
	rank int32 // key rank; for opMGet the index into tables.mget
	line int32 // opSet: index into stream.setLines
}

// stream is one connection's whole request sequence, generated before any
// request is sent.
type stream struct {
	ops      []op
	setLines []string // SET lines carry their version, so each is distinct
}

type mgetEntry struct {
	line, expect string
	ranks        []int32
	payload      int
}

// tables holds everything about the key space that streams share.
type tables struct {
	w        workload
	keys     []string
	getLines []string
	fills    []string // value body of each key, after the version prefix
	mget     []mgetEntry
	compress string
}

const versionPrefixLen = len("v00000000-")

// fillFor is the version-independent body of rank's value: base64-alphabet
// characters, so MGET's percent-escaping has '+' and '/' to escape.
func fillFor(rank, n int) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	b := make([]byte, n)
	var x uint64
	for i := range b {
		if i%10 == 0 {
			x = chaos.ChildSeed(uint64(rank), uint64(i))
		}
		b[i] = alphabet[x&63]
		x >>= 6
	}
	return string(b)
}

// valueFor is the value a SET of (rank, version) stores: a pure function
// of both, so any VALUE reply can be checked without remembering what was
// written. Version 0 is the preload. The leading 'v' keeps the value from
// ever having the shape of a D/A metadata token.
func (t *tables) valueFor(rank int, ver uint32) string {
	return fmt.Sprintf("v%08x-%s", ver, t.fills[rank])
}

func (t *tables) setLine(rank int, ver uint32) string {
	return "SET " + t.keys[rank] + " " + t.valueFor(rank, ver)
}

func newTables(w workload, seed uint64) *tables {
	t := &tables{
		w:        w,
		keys:     make([]string, numKeys),
		getLines: make([]string, numKeys),
		fills:    make([]string, numKeys),
		compress: "COMPRESS " + strconv.Itoa(w.beKB),
	}
	for r := 0; r < numKeys; r++ {
		t.keys[r] = string(mica.KeyForRank(r))
		t.getLines[r] = "GET " + t.keys[r]
		t.fills[r] = fillFor(r, w.valueBytes-versionPrefixLen)
	}
	if w.mgetKeys > 0 {
		rng := sim.NewRNG(chaos.ChildSeed(seed, 1<<20))
		zipf := sim.NewZipf(numKeys, zipfSkew)
		t.mget = make([]mgetEntry, mgetPool)
		var line, expect strings.Builder
		for i := range t.mget {
			line.Reset()
			expect.Reset()
			line.WriteString("MGET")
			expect.WriteString("MVALUES")
			e := mgetEntry{ranks: make([]int32, w.mgetKeys)}
			for k := range e.ranks {
				r := zipf.Sample(rng)
				e.ranks[k] = int32(r)
				v := t.valueFor(r, 0)
				line.WriteByte(' ')
				line.WriteString(t.keys[r])
				expect.WriteString(" =")
				expect.WriteString(url.QueryEscape(v))
				e.payload += len(v)
			}
			e.line, e.expect = line.String(), expect.String()
			t.mget[i] = e
		}
	}
	return t
}

// lcConns reports how many of conns connections carry LC traffic.
func (w workload) lcConns(conns int) int {
	if w.beKB > 0 {
		return conns - 1
	}
	return conns
}

// streamLen is how many ops connection conn needs for its share of the
// warm-up plus a window of the given length at the rate cap.
func (w workload) streamLen(conns int, seconds float64) int {
	return w.warmup/w.lcConns(conns) + int(float64(w.lcRateCap)*seconds) + 1
}

// genStream builds connection conn's stream from chaos.ChildSeed(seed,
// conn): the same seed gives the same bytes. SETs are partitioned by key
// rank over the LC connections (rank mod nLC == conn), so each key has one
// writer and the version a SET carries is known when the stream is built.
func genStream(t *tables, seed uint64, conn, conns int, n int) *stream {
	w := t.w
	nLC := w.lcConns(conns)
	if conn >= nLC {
		s := &stream{ops: make([]op, n)}
		for i := range s.ops {
			s.ops[i] = op{kind: opCompress}
		}
		return s
	}
	rng := sim.NewRNG(chaos.ChildSeed(seed, uint64(conn)))
	zipf := sim.NewZipf(numKeys, zipfSkew)
	s := &stream{ops: make([]op, n)}
	vers := make([]uint32, numKeys)
	for i := range s.ops {
		if w.mgetKeys > 0 {
			s.ops[i] = op{kind: opMGet, rank: int32(rng.Intn(len(t.mget)))}
			continue
		}
		r := zipf.Sample(rng)
		if rng.Intn(100) >= w.setPct {
			s.ops[i] = op{kind: opGet, rank: int32(r)}
			continue
		}
		r = r - r%nLC + conn // this connection's nearest owned rank
		if r >= numKeys {
			r -= nLC
		}
		vers[r]++
		s.ops[i] = op{kind: opSet, rank: int32(r), line: int32(len(s.setLines))}
		s.setLines = append(s.setLines, t.setLine(r, vers[r]))
	}
	return s
}

// line is the request text of o, without metadata tokens.
func (s *stream) line(t *tables, o op) string {
	switch o.kind {
	case opGet:
		return t.getLines[o.rank]
	case opSet:
		return s.setLines[o.line]
	case opMGet:
		return t.mget[o.rank].line
	default:
		return t.compress
	}
}

// validator checks every reply on one connection and remembers what it
// needs to check the next: the version it last wrote to each key it owns,
// and the highest version it has read of every key.
type validator struct {
	t         *tables
	conn, nLC int
	// strict checks versions: a GET of an owned key must return exactly
	// the version this connection last wrote, and no GET may return an
	// older version than one already read. The layer ladder replays one
	// stream several times over the same store and turns it off.
	strict bool
	wrote  []uint32
	seen   []uint32
	// firstErr keeps the first rejected reply for the report.
	firstErr string
}

func newValidator(t *tables, conn, conns int, strict bool) *validator {
	return &validator{
		t: t, conn: conn, nLC: t.w.lcConns(conns), strict: strict,
		wrote: make([]uint32, numKeys), seen: make([]uint32, numKeys),
	}
}

func (v *validator) owns(rank int32) bool { return int(rank)%v.nLC == v.conn }

// check reports whether resp is the correct reply to o, and the payload
// bytes the reply carried or acknowledged.
func (v *validator) check(s *stream, o op, resp string) (payload int, ok bool) {
	switch o.kind {
	case opGet:
		payload, ok = v.checkGet(o.rank, resp)
	case opSet:
		ok = resp == "OK"
		if ok {
			v.wrote[o.rank]++
			payload = v.t.w.valueBytes
		}
	case opMGet:
		e := &v.t.mget[o.rank]
		payload, ok = e.payload, resp == e.expect
	case opCompress:
		payload, ok = checkCompressed(resp, v.t.w.beKB)
	}
	if !ok && v.firstErr == "" {
		if len(resp) > 120 {
			resp = resp[:120] + "..."
		}
		v.firstErr = fmt.Sprintf("conn %d: %q answered %q", v.conn, s.line(v.t, o), resp)
	}
	return payload, ok
}

// getVersion parses a GET reply for rank: "VALUE v<8 hex version>-<fill of
// the key>". ok is false for anything else, NOT_FOUND included.
func (t *tables) getVersion(rank int32, resp string) (ver uint32, ok bool) {
	const head = len("VALUE ")
	fill := t.fills[rank]
	if len(resp) != head+versionPrefixLen+len(fill) || resp[:head+1] != "VALUE v" ||
		resp[head+versionPrefixLen-1] != '-' || resp[head+versionPrefixLen:] != fill {
		return 0, false
	}
	for _, c := range []byte(resp[head+1 : head+versionPrefixLen-1]) {
		switch {
		case c >= '0' && c <= '9':
			ver = ver<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			ver = ver<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return ver, true
}

// checkGet accepts a well-formed value whose version the key can hold now:
// exactly the last one written, for the key's owner; never older than one
// already read, for anyone.
func (v *validator) checkGet(rank int32, resp string) (int, bool) {
	ver, ok := v.t.getVersion(rank, resp)
	if !ok || v.strict && (ver < v.seen[rank] || v.owns(rank) && ver != v.wrote[rank]) {
		return 0, false
	}
	v.seen[rank] = ver
	return len(resp) - len("VALUE "), true
}

// checkCompressed accepts "COMPRESSED <kb*1024> <out>" with 0 < out.
func checkCompressed(resp string, kb int) (int, bool) {
	rest, found := strings.CutPrefix(resp, "COMPRESSED ")
	if !found {
		return 0, false
	}
	inStr, outStr, found := strings.Cut(rest, " ")
	if !found {
		return 0, false
	}
	in, err1 := strconv.Atoi(inStr)
	out, err2 := strconv.Atoi(outStr)
	if err1 != nil || err2 != nil || in != kb*1024 || out <= 0 {
		return 0, false
	}
	return in, true
}
