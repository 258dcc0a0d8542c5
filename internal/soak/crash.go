// Crash scenario: the one fault the in-process injectors cannot model
// is losing the process itself. This file runs the WAL-enabled server
// as a re-exec'd child, SIGKILLs it at the plan's times — mid-write,
// mid-fsync, mid-snapshot, wherever the schedule lands — restarts it
// against the same WAL directory, and after every recovery verifies
// the durability contract end to end:
//
//	every SET the child acknowledged "OK" is readable afterwards, and
//	reads back a value at least as new as the newest acknowledged one.
//
// Unacknowledged SETs may or may not survive (the crash raced the
// fsync); acknowledged ones must. The WALLie knob inverts the build —
// the child's WAL runs on a chaos.FS that silently drops every write — and
// the same checker must then report losses, proving the harness has
// teeth (see TestSoakCrashCatchesLyingWAL).
package soak

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/liveserver"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/preemptible"
)

// crashServerEnv is the flag variable that turns a process into the
// crash scenario's server child; the rest parameterize it.
const (
	crashServerEnv   = "SOAK_CRASH_SERVER"
	crashAddrEnv     = "SOAK_ADDR"
	crashWALDirEnv   = "SOAK_WALDIR"
	crashShardsEnv   = "SOAK_SHARDS"
	crashWALSyncEnv  = "SOAK_WALSYNC"
	crashSnapEnv     = "SOAK_SNAPEVERY"
	crashWALLieEnv   = "SOAK_WALLIE"
	crashSnapshotLen = 64 // child's SnapshotEvery: several snapshots per soak
)

// ServerMainIfRequested turns the current process into the crash
// scenario's server when the soak parent re-executed it with
// SOAK_CRASH_SERVER=1 in the environment. Call it first thing in
// main() (and in TestMain) of any binary that runs crash soaks; in a
// normal process it returns immediately, in a server child it serves
// until killed and never returns.
func ServerMainIfRequested() {
	if os.Getenv(crashServerEnv) != "1" {
		return
	}
	os.Exit(crashServerMain())
}

func crashServerMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "soak-crash-server:", err)
		return 1
	}
	shards, _ := strconv.Atoi(os.Getenv(crashShardsEnv))
	if shards <= 0 {
		shards = 2
	}
	snapEvery, _ := strconv.Atoi(os.Getenv(crashSnapEnv))
	mode, err := wal.ParseSyncMode(os.Getenv(crashWALSyncEnv))
	if err != nil {
		return fail(err)
	}
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return fail(err)
	}
	cfg := liveserver.Config{
		Shards:        shards,
		Workers:       2,
		Quantum:       500 * time.Microsecond,
		WALDir:        os.Getenv(crashWALDirEnv),
		WALSync:       mode,
		SnapshotEvery: snapEvery,
	}
	if os.Getenv(crashWALLieEnv) == "1" {
		// The deliberately broken durability build: past its first byte
		// the filesystem reports every write as done and keeps none of
		// it, and the server runs its real DurableSet path on top —
		// append, fsync, ack — so each acknowledged SET is gone after
		// the next SIGKILL, which the durability checker must report.
		cfg.WALFS = chaos.NewFS(nil, chaos.FSConfig{CrashAtBytes: 1})
	}
	srv := liveserver.New(rt, cfg)
	ln, err := net.Listen("tcp", os.Getenv(crashAddrEnv))
	if err != nil {
		return fail(err)
	}
	// Serve until SIGKILLed; a clean return means the listener died.
	if err := srv.Serve(ln); err != nil {
		return fail(err)
	}
	return 0
}

// durabilityLedger records, per key, every value a worker attempted to
// write and the newest sequence number the server acknowledged. Values
// are "w<worker>s<seq>" with workers owning disjoint key spaces, so
// per-key sequence numbers are monotonic and the recovered value's
// recency is decidable from the value alone.
type durabilityLedger struct {
	mu        sync.Mutex
	attempted map[string]map[string]bool
	ackedSeq  map[string]int
	acks      uint64
}

func newDurabilityLedger() *durabilityLedger {
	return &durabilityLedger{
		attempted: make(map[string]map[string]bool),
		ackedSeq:  make(map[string]int),
	}
}

func (l *durabilityLedger) willSet(key, value string) {
	l.mu.Lock()
	set := l.attempted[key]
	if set == nil {
		set = make(map[string]bool)
		l.attempted[key] = set
	}
	set[value] = true
	l.mu.Unlock()
}

func (l *durabilityLedger) acked(key string, seq int) {
	l.mu.Lock()
	if seq > l.ackedSeq[key] {
		l.ackedSeq[key] = seq
	}
	l.acks++
	l.mu.Unlock()
}

func (l *durabilityLedger) ackCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acks
}

// ackedSnapshot returns the acked map as of now. Workers keep writing
// during verification; a key acked after the snapshot is simply held
// to the older (weaker) bound, which is still sound.
func (l *durabilityLedger) ackedSnapshot() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int, len(l.ackedSeq))
	for k, s := range l.ackedSeq {
		out[k] = s
	}
	return out
}

// valueSeq parses the trailing sequence number of a "w<w>s<seq>" value
// (-1 if the shape is wrong — which verify flags via the attempted
// check anyway).
func valueSeq(v string) int {
	i := strings.LastIndexByte(v, 's')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(v[i+1:])
	if err != nil {
		return -1
	}
	return n
}

// verifyRecovered checks one post-recovery GET response for a key
// acknowledged at sequence seq.
func (l *durabilityLedger) verifyRecovered(stage string, key string, seq int, resp string, v *violations) bool {
	switch {
	case resp == "NOT_FOUND":
		v.add("durability: %s: key %s lost — acked through seq %d, now NOT_FOUND", stage, key, seq)
		return false
	case strings.HasPrefix(resp, "VALUE "):
		val := resp[len("VALUE "):]
		l.mu.Lock()
		legal := l.attempted[key][val]
		l.mu.Unlock()
		if !legal {
			v.add("durability: %s: key %s recovered fabricated value %q", stage, key, val)
			return false
		}
		if got := valueSeq(val); got < seq {
			v.add("durability: %s: key %s rolled back — acked seq %d, recovered seq %d", stage, key, seq, got)
			return false
		}
		return true
	default:
		v.add("durability: %s: GET %s → unrecognized response %q", stage, key, resp)
		return false
	}
}

// crashClient is a minimal line client with reconnect-on-error: the
// tail-tolerant client's hedging would mask exactly the downtime this
// scenario wants to see plainly.
type crashClient struct {
	addr string
	conn net.Conn
	r    *bufio.Scanner
}

func (c *crashClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

func (c *crashClient) do(req string) (string, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 250*time.Millisecond)
		if err != nil {
			return "", err
		}
		c.conn = conn
		c.r = bufio.NewScanner(conn)
		c.r.Buffer(make([]byte, 0, 64*1024), 1<<20)
	}
	c.conn.SetDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	if _, err := c.conn.Write([]byte(req + "\n")); err != nil {
		c.close()
		return "", err
	}
	if !c.r.Scan() {
		err := c.r.Err()
		if err == nil {
			err = fmt.Errorf("connection closed")
		}
		c.close()
		return "", err
	}
	return c.r.Text(), nil
}

// runCrash executes the crash scenario: child server under SIGKILL,
// durability verification after every recovery. Run dispatches here
// when cfg.Scenario == ScenarioCrash.
func runCrash(cfg Config, plan Plan, logf func(string, ...any)) (*Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	walDir := cfg.WALDir
	if walDir == "" {
		walDir, err = os.MkdirTemp("", "soak-crash-wal-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	// Reserve an address once so every incarnation of the child listens
	// on the same port the workers are hammering.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := rsv.Addr().String()
	rsv.Close()

	v := &violations{}
	ledger := newDurabilityLedger()

	start := func() (*exec.Cmd, error) {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			crashServerEnv+"=1",
			crashAddrEnv+"="+addr,
			crashWALDirEnv+"="+walDir,
			crashShardsEnv+"="+strconv.Itoa(cfg.Shards),
			crashWALSyncEnv+"=group",
			crashSnapEnv+"="+strconv.Itoa(crashSnapshotLen),
		)
		if cfg.WALLie {
			cmd.Env = append(cmd.Env, crashWALLieEnv+"=1")
		}
		if cfg.Log != nil {
			cmd.Stderr = cfg.Log
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, nil
	}
	waitReady := func() error {
		c := &crashClient{addr: addr}
		defer c.close()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if resp, err := c.do("PING"); err == nil && resp == "PONG" {
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("child server not ready at %s within 5s", addr)
	}
	kill := func(cmd *exec.Cmd) {
		cmd.Process.Kill() //nolint:errcheck // SIGKILL: the crash under test
		cmd.Wait()         //nolint:errcheck // expected "signal: killed"
	}

	cmd, err := start()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cmd != nil {
			kill(cmd)
		}
	}()
	if err := waitReady(); err != nil {
		return nil, err
	}
	logf("crash: child serving at %s, wal=%s", addr, walDir)

	// verifyAll GETs every acknowledged key with retries (right after a
	// restart a key's shard may briefly answer a rejection).
	var verified uint64
	verifyAll := func(stage string) {
		c := &crashClient{addr: addr}
		defer c.close()
		for key, seq := range ledger.ackedSnapshot() {
			var resp string
			var err error
			for attempt := 0; attempt < 40; attempt++ {
				resp, err = c.do("GET " + key)
				if err == nil && !strings.HasPrefix(resp, "ERR") {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			switch {
			case err != nil:
				v.add("durability: %s: GET %s never answered: %v", stage, key, err)
			case strings.HasPrefix(resp, "ERR"):
				v.add("durability: %s: GET %s kept rejecting: %q", stage, key, resp)
			case ledger.verifyRecovered(stage, key, seq, resp, v):
				atomic.AddUint64(&verified, 1)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	base := time.Now()
	sleepUntil := func(offset time.Duration) bool {
		d := time.Until(base.Add(offset))
		if d <= 0 {
			return ctx.Err() == nil
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}

	// Workers: each owns the disjoint key space "c<w>k<j>", so per-key
	// acked sequence numbers are monotonic. SETs dominate — durable
	// writes are the subject under test — with GETs checked against the
	// same ledger the post-recovery verifier uses.
	var wg sync.WaitGroup
	var opsMu sync.Mutex
	ops := make(map[string]uint64)
	tally := func(k string) {
		opsMu.Lock()
		ops[k]++
		opsMu.Unlock()
	}
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(chaos.ChildSeed(cfg.Seed, workerChild+uint64(w)))
			c := &crashClient{addr: addr}
			defer c.close()
			seq := 0
			for ctx.Err() == nil {
				key := fmt.Sprintf("c%dk%d", w, rng.Intn(8))
				if rng.Intn(100) < 70 {
					seq++
					val := fmt.Sprintf("w%ds%d", w, seq)
					ledger.willSet(key, val)
					resp, err := c.do("SET " + key + " " + val)
					switch {
					case err != nil:
						tally("conn_error") // crashed mid-op: unacked, may or may not survive
					case resp == "OK":
						ledger.acked(key, seq)
						tally("ok")
					default:
						tally("rejected")
					}
				} else {
					resp, err := c.do("GET " + key)
					switch {
					case err != nil:
						tally("conn_error")
					case resp == "NOT_FOUND" || strings.HasPrefix(resp, "ERR"):
						tally("rejected")
					case strings.HasPrefix(resp, "VALUE "):
						// Live reads obey the same ledger: a fabricated or
						// cross-keyed value is a violation even between crashes.
						val := resp[len("VALUE "):]
						ledger.mu.Lock()
						legal := ledger.attempted[key][val]
						ledger.mu.Unlock()
						if !legal {
							v.add("model: GET %s returned %q, never attempted for that key", key, val)
						}
						tally("ok")
					default:
						v.add("model: GET %s → unrecognized response %q", key, resp)
						tally("ok")
					}
				}
				select {
				case <-ctx.Done():
				case <-time.After(2 * time.Millisecond):
				}
			}
		}(w)
	}

	// Conservation over the wire: the only STATS2 surface a subprocess
	// exposes. Connection loss during a crash window is not a
	// violation; a fully framed document that fails to decode or
	// balance is.
	var samples uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &crashClient{addr: addr}
		defer c.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			line, err := c.do("STATS2")
			if err != nil {
				continue // server down or line torn by the kill
			}
			if !strings.HasPrefix(line, "STATS2 {") || !strings.HasSuffix(line, "}") {
				continue // torn frame at a crash boundary
			}
			m, err := liveserver.DecodeMetricsV2(line)
			if err != nil {
				v.add("conservation: STATS2 decode: %v", err)
				continue
			}
			checkConservation(m, v)
			atomic.AddUint64(&samples, 1)
		}
	}()

	// The crash walker: at each planned time SIGKILL the whole process,
	// restart it on the same WAL directory, and verify every
	// acknowledged write recovered before letting the clock run on.
	var crashes uint64
	for _, ev := range plan.Crashes {
		if !sleepUntil(time.Duration(ev.AtMicros) * time.Microsecond) {
			break
		}
		kill(cmd)
		cmd = nil
		crashes++
		logf("crash: SIGKILL #%d at +%s (%d keys acked)", crashes,
			time.Duration(ev.AtMicros)*time.Microsecond, len(ledger.ackedSnapshot()))
		c, err := start()
		if err != nil {
			return nil, err
		}
		cmd = c
		if err := waitReady(); err != nil {
			return nil, err
		}
		verifyAll(fmt.Sprintf("after crash %d", crashes))
	}

	<-ctx.Done()
	cancel()
	wg.Wait()

	// Final pass: one more kill + recovery so writes acked after the
	// last planned crash are verified too, then tear the child down.
	kill(cmd)
	cmd = nil
	crashes++
	fc, err := start()
	if err != nil {
		return nil, err
	}
	cmd = fc
	if err := waitReady(); err != nil {
		return nil, err
	}
	verifyAll("final recovery")

	list, total := v.snapshot()
	rep := newReport(plan, cfg.Clients)
	rep.Ops = ops
	rep.Samples = atomic.LoadUint64(&samples)
	rep.Crashes = crashes
	rep.AckedWrites = ledger.ackCount()
	rep.VerifiedKeys = atomic.LoadUint64(&verified)
	rep.ViolationsTotal = total
	if list != nil {
		rep.Violations = list
	}
	logf("crash: done: ops=%v crashes=%d acked=%d verified=%d violations=%d",
		ops, crashes, rep.AckedWrites, rep.VerifiedKeys, total)
	return rep, nil
}
