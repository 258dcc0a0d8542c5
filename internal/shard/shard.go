// Package shard partitions the live server into bulkhead-isolated
// units. Each Shard owns a full vertical slice of the serving stack —
// its own preemptible.Pool, mica.Store partition, brownout controller,
// per-class circuit breakers, and counters — so one wedged, panicking,
// or chaos-killed shard is a contained failure domain: its siblings
// share nothing with it but the process and the preemptible.Runtime's
// context free lists. A Group (group.go) glues N shards behind a
// rendezvous router and supervises them: heartbeat probes detect a dead
// shard, drain it, rebuild it from a fresh store partition, and
// re-admit it, with a restart budget that escalates a flapping shard to
// a terminal Dead state.
//
// The failure semantics are deliberately partial: while a shard is
// down, only keys that route to it answer Unavailable — the router
// never fails keys over to a sibling whose store has never seen them.
// Without durability configured, a rebuilt shard restarts with an
// empty store partition (cache semantics, exactly like a restarted
// memcached node). With Config.WALDir set, each shard owns a
// write-ahead log (internal/wal): SETs are logged and group-commit
// fsynced before they are acknowledged (DurableSet), and rebuild
// recovers the partition from snapshot+log, so acknowledged writes
// survive both supervised restarts and whole-process crashes. The
// shard's admission counters live in the Shard, not the pool, and
// survive restarts — they are the server's only admission counters, so
// every group total is a read-time sum over shards (DESIGN.md, "Counter
// invariant"); WAL counters accumulate the same way across generations.
package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bejob"
	"repro/internal/breaker"
	"repro/internal/brownout"
	"repro/internal/mica"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/preemptible"
)

// Health is a shard's lifecycle state.
type Health int32

const (
	// Healthy: the shard is admitting and serving its keys.
	Healthy Health = iota
	// Restarting: the supervisor detected a failure and is draining and
	// rebuilding the shard; its keys answer Unavailable.
	Restarting
	// Dead: the restart budget is exhausted — the shard flapped too
	// often and was retired permanently. Its keys answer Unavailable
	// forever; siblings are unaffected.
	Dead

	// NumHealthStates sizes per-state arrays.
	NumHealthStates = 3
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Restarting:
		return "restarting"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

// Config parameterizes one shard (every shard of a group shares one
// Config). Semantics and defaults mirror the pre-sharding liveserver:
// MaxInflight is the per-shard admission cap, RequestTimeout the
// per-shard queue-wait bound.
type Config struct {
	// Workers is the shard pool's worker count (default 2).
	Workers int
	// Quantum is the shard pool's time slice (default 1ms).
	Quantum time.Duration
	// StoreLogBytes sizes the shard's KV store partition (default 4 MiB).
	StoreLogBytes int
	// MaxInflight bounds requests admitted to this shard at once
	// (default 64 × Workers; negative = unlimited).
	MaxInflight int
	// RequestTimeout bounds a request's queue wait (0 = none).
	RequestTimeout time.Duration

	// Brownout parameterizes the shard's degradation controller; each
	// shard browns out independently, so a COMPRESS flood on one shard
	// cannot push a sibling into BROWNOUT.
	Brownout         brownout.Config
	BrownoutDisabled bool
	// BrownoutPeriod is the controller cadence (default 2ms).
	BrownoutPeriod time.Duration
	// BrownoutDelayTarget normalizes the queue-delay signal (default:
	// RequestTimeout, else 20ms).
	BrownoutDelayTarget time.Duration

	// Breaker parameterizes the shard's per-class circuit breakers.
	Breaker         breaker.Config
	BreakerDisabled bool

	// WALDir, when non-empty, enables per-shard durability: shard i
	// logs acknowledged SETs to WALDir/shard-<i>, and a supervised
	// rebuild recovers the partition from snapshot+log instead of
	// restarting empty.
	WALDir string
	// WALSync is the log's durability mode (default: group commit).
	WALSync wal.SyncMode
	// SnapshotEvery snapshots the partition after this many logged SETs
	// and truncates the covered log (0 = never snapshot).
	SnapshotEvery int
	// WALFS overrides the WAL's filesystem (chaos fault injection);
	// nil = the OS.
	WALFS wal.FS
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Quantum == 0 {
		c.Quantum = time.Millisecond
	}
	if c.StoreLogBytes == 0 {
		c.StoreLogBytes = 4 << 20
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64 * c.Workers
	}
	if c.BrownoutPeriod <= 0 {
		c.BrownoutPeriod = 2 * time.Millisecond
	}
	if c.BrownoutDelayTarget <= 0 {
		c.BrownoutDelayTarget = c.RequestTimeout
	}
	if c.BrownoutDelayTarget <= 0 {
		c.BrownoutDelayTarget = 20 * time.Millisecond
	}
	return c
}

// Outcome is a request's terminal disposition on a shard — Do counts
// it, the wire layer maps it to a response line.
type Outcome int

const (
	// OK: the task ran to completion.
	OK Outcome = iota
	// RejectedShed: fast-rejected at the door while the shard was in
	// SHED ("ERR overloaded").
	RejectedShed
	// RejectedBrownout: BE fast-rejected while browned out
	// ("ERR brownout").
	RejectedBrownout
	// RejectedInflight: fast-rejected by the inflight cap under Normal
	// ("ERR overloaded").
	RejectedInflight
	// Unavailable: the shard is Restarting/Dead, its class breaker is
	// open, or its pool is draining ("ERR unavailable").
	Unavailable
	// Failed: the task panicked; the pool contained it ("ERR internal").
	Failed
	// CancelledQueued/CancelledExecuting: cancelled via Gone — evicted
	// from the queue, or unwound at a safepoint ("ERR cancelled").
	CancelledQueued
	CancelledExecuting
	// ExpiredQueued/ExpiredExecuting: the wire deadline passed
	// server-side ("ERR deadline").
	ExpiredQueued
	ExpiredExecuting
	// Evicted: queued BE dropped by a brownout transition
	// ("ERR brownout"/"ERR overloaded" per current state).
	Evicted
	// Timeout: shed after waiting out RequestTimeout ("ERR overloaded").
	Timeout
)

func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case RejectedShed:
		return "rejected-shed"
	case RejectedBrownout:
		return "rejected-brownout"
	case RejectedInflight:
		return "rejected-inflight"
	case Unavailable:
		return "unavailable"
	case Failed:
		return "failed"
	case CancelledQueued:
		return "cancelled-queued"
	case CancelledExecuting:
		return "cancelled-executing"
	case ExpiredQueued:
		return "expired-queued"
	case ExpiredExecuting:
		return "expired-executing"
	case Evicted:
		return "evicted"
	case Timeout:
		return "timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Result is one Do call's disposition plus the brownout state that
// governed it — rejection counters are indexed by that state.
type Result struct {
	Outcome Outcome
	// BState is the shard's brownout state at the admission decision
	// (for Evicted, at settlement).
	BState brownout.State
}

// ClassCounters is one shard's per-class admission tally, as a plain
// value (see Shard.Snapshot). At quiescence Requests equals the sum of
// every other field except Reattempts: each Do call counts exactly one
// outcome.
type ClassCounters struct {
	// Requests counts Do calls for the class that reached the shard.
	Requests uint64
	// Completed counts tasks that ran to completion.
	Completed uint64
	// Rejected counts fast-rejects, indexed by the brownout state that
	// issued them (Normal = the plain inflight cap).
	Rejected [brownout.NumStates]uint64
	// Timeouts counts RequestTimeout sheds.
	Timeouts uint64
	// Evicted counts queued BE dropped by brownout transitions.
	Evicted uint64
	// Failed counts contained panics.
	Failed uint64
	// Unavailable counts breaker/lifecycle fast-rejects.
	Unavailable uint64
	// ExpiredQueued/ExpiredExecuting count wire-deadline expiries.
	ExpiredQueued, ExpiredExecuting uint64
	// Cancelled counts Gone-cancelled requests (both stages; the pool's
	// PoolStats splits them into queued and executing).
	Cancelled uint64
	// Reattempts counts admitted requests marked attempt ≥ 1.
	Reattempts uint64
}

// classCounters is the live form of ClassCounters: each field is bumped
// in place by the Do call that decides it, with no lock.
type classCounters struct {
	requests, completed             atomic.Uint64
	rejected                        [brownout.NumStates]atomic.Uint64
	timeouts, evicted               atomic.Uint64
	failed, unavailable             atomic.Uint64
	expiredQueued, expiredExecuting atomic.Uint64
	cancelled, reattempts           atomic.Uint64
}

func (c *classCounters) load() ClassCounters {
	out := ClassCounters{
		Requests:         c.requests.Load(),
		Completed:        c.completed.Load(),
		Timeouts:         c.timeouts.Load(),
		Evicted:          c.evicted.Load(),
		Failed:           c.failed.Load(),
		Unavailable:      c.unavailable.Load(),
		ExpiredQueued:    c.expiredQueued.Load(),
		ExpiredExecuting: c.expiredExecuting.Load(),
		Cancelled:        c.cancelled.Load(),
		Reattempts:       c.reattempts.Load(),
	}
	for i := range c.rejected {
		out.Rejected[i] = c.rejected[i].Load()
	}
	return out
}

// DoOptions carries one request's scheduling metadata into a shard.
type DoOptions struct {
	// Deadline, when non-zero, is the hard wire deadline (D token).
	Deadline time.Time
	// Attempt is the client's attempt number (0 = primary).
	Attempt int64
	// Gone, when non-nil and closed, marks the client as disconnected:
	// the request is cancelled instead of burning a worker.
	Gone <-chan struct{}
}

// unit is one generation of a shard's rebuildable internals: everything
// a restart throws away and recreates. Swapping the whole struct behind
// one atomic pointer keeps Do's snapshot race-free against a concurrent
// rebuild.
type unit struct {
	pool   *preemptible.Pool
	store  *mica.Store
	engine *bejob.Engine
	// wal is this generation's write-ahead log, nil when durability is
	// off. It is opened (recovering the store) in buildUnit and closed
	// in retire, after the pool drains — so the log's lifetime brackets
	// every SET the generation acknowledged.
	wal *wal.Log
	// walErr records a failed WAL open: the shard still serves GETs
	// from the recovered-so-far store, but DurableSet refuses to
	// acknowledge what it cannot log.
	walErr   error
	ctl      *brownout.Controller
	breakers [preemptible.NumClasses]*breaker.Breaker
	loopStop chan struct{}
	retired  bool // set under Shard.mu; makes retire idempotent per generation
	// folded is set under Shard.mu in the critical section that adds
	// this generation's pool and WAL counters to the shard's retired
	// accumulators. The unit stays installed as cur after that (for good
	// once the shard is closed, until the swap in rebuild), so Stats and
	// WALStats read it to know the accumulators already hold this unit.
	// retired cannot stand in: it is set before the drain, while the
	// pool still counts.
	folded bool
	// killed releases this generation's Wedge tasks. A wedged "thread"
	// is reclaimed only when its unit is torn down — closing this
	// channel in retire is the in-process analog of the OS killing a
	// stuck thread when the shard process is restarted.
	killed chan struct{}
}

// Shard is one bulkhead: a pool + store partition + degradation state,
// restartable in place.
type Shard struct {
	idx int
	rt  *preemptible.Runtime
	cfg Config

	// cur is the live generation: read lock-free on the request path,
	// swapped only by rebuild, under mu — which also guards gen and the
	// retired accumulators, so Stats/WALStats pair them with the
	// generation they belong to.
	cur atomic.Pointer[unit]
	mu  sync.Mutex
	gen uint64

	// storeMu serializes store access AND its WAL append: DurableSet
	// holds it across Set+Append so log order equals apply order.
	// (Recovery writes need no lock — they land on a unit that is not
	// yet installed as cur.)
	storeMu sync.Mutex
	// walRetired accumulates retired generations' WAL counters, like
	// the retired pool stats; snapWG tracks in-flight async snapshot
	// writers so retire can close the log behind them.
	walRetired wal.Stats
	snapWG     sync.WaitGroup

	health     atomic.Int32
	bstate     atomic.Int32 // brownout.State, written by the generation's loop
	inflight   atomic.Int64
	rejectsWin atomic.Uint64
	loopWG     sync.WaitGroup

	// retired accumulates the counter fields of drained generations'
	// PoolStats; Stats() adds the live pool on top.
	retired preemptible.PoolStats

	counters [preemptible.NumClasses]classCounters
	// lat records completed requests' end-to-end shard latency
	// (admission to done callback) in microseconds, per class. Like the
	// admission counters it lives in the Shard, not the unit, so the
	// distribution survives restarts and group totals stay a pure merge
	// over shards. Guarded by latMu (Histogram is not concurrency-safe);
	// completed is bumped under the same lock, so a Snapshot always sees
	// latency count == completed.
	latMu sync.Mutex
	lat   [preemptible.NumClasses]*stats.Histogram
}

// newShard builds a healthy shard and starts its brownout loop.
func newShard(rt *preemptible.Runtime, idx int, cfg Config) *Shard {
	s := &Shard{idx: idx, rt: rt, cfg: cfg.withDefaults()}
	for c := range s.lat {
		s.lat[c] = stats.NewHistogram()
	}
	s.cur.Store(s.buildUnit())
	return s
}

// buildUnit constructs one generation of internals and starts its
// brownout loop. Caller holds s.mu (or the shard is not yet shared).
func (s *Shard) buildUnit() *unit {
	u := &unit{
		pool:     preemptible.NewPool(s.rt, preemptible.PoolConfig{Workers: s.cfg.Workers, Quantum: s.cfg.Quantum}),
		store:    mica.NewStore(s.cfg.StoreLogBytes, s.cfg.StoreLogBytes/256),
		engine:   bejob.NewEngine(0),
		ctl:      brownout.New(s.cfg.Brownout),
		loopStop: make(chan struct{}),
		killed:   make(chan struct{}),
	}
	if s.cfg.WALDir != "" {
		// Opening the log IS the recovery: snapshot + replay applies
		// every acknowledged SET into the fresh partition before the
		// generation serves anything. A failed open degrades the shard
		// to read-only-of-recovered-state rather than killing it.
		l, err := wal.Open(wal.Config{
			Dir:           filepath.Join(s.cfg.WALDir, fmt.Sprintf("shard-%d", s.idx)),
			Sync:          s.cfg.WALSync,
			SnapshotEvery: s.cfg.SnapshotEvery,
			FS:            s.cfg.WALFS,
		}, func(k, v []byte) { u.store.Set(k, v) })
		if err != nil {
			u.walErr = fmt.Errorf("shard %d: wal open: %w", s.idx, err)
		} else {
			u.wal = l
		}
	}
	if !s.cfg.BreakerDisabled {
		for c := range u.breakers {
			u.breakers[c] = breaker.New(s.cfg.Breaker)
		}
	}
	s.bstate.Store(int32(brownout.Normal))
	if !s.cfg.BrownoutDisabled {
		s.loopWG.Add(1)
		go s.brownoutLoop(u)
	}
	return u
}

// snapshot returns the current generation.
func (s *Shard) snapshot() *unit { return s.cur.Load() }

// Index reports the shard's position in its group.
func (s *Shard) Index() int { return s.idx }

// Health reports the shard's lifecycle state.
func (s *Shard) Health() Health { return Health(s.health.Load()) }

func (s *Shard) casHealth(from, to Health) bool {
	return s.health.CompareAndSwap(int32(from), int32(to))
}

// Generation reports how many times the shard has been rebuilt.
func (s *Shard) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Pool exposes the current generation's pool (tests, drain).
func (s *Shard) Pool() *preemptible.Pool { return s.snapshot().pool }

// Store exposes the current generation's store partition. Concurrent
// callers must serialize through StoreView/StoreGet/DurableSet.
func (s *Shard) Store() *mica.Store { return s.snapshot().store }

// StoreGet looks key up in the current generation's store under the
// shard's store lock.
func (s *Shard) StoreGet(key []byte) mica.GetResult {
	u := s.snapshot()
	s.storeMu.Lock()
	r := u.store.Get(key)
	s.storeMu.Unlock()
	return r
}

// StoreAppendGet is StoreGet into the caller's buffer: a hit's value is
// appended to dst while the store lock is held, so the read allocates
// nothing.
func (s *Shard) StoreAppendGet(dst, key []byte) ([]byte, bool) {
	u := s.snapshot()
	s.storeMu.Lock()
	dst, hit := u.store.AppendGet(dst, key)
	s.storeMu.Unlock()
	return dst, hit
}

// StoreView runs f on the current generation's store under the shard's
// store lock — the multi-op access path (MGET, tests).
func (s *Shard) StoreView(f func(st *mica.Store)) {
	u := s.snapshot()
	s.storeMu.Lock()
	f(u.store)
	s.storeMu.Unlock()
}

// DurableSet logs one SET and, once the append succeeds, applies it;
// then it waits for the log's fsync. ok reports whether the store
// accepts the item (false = too large, same as Store().Set; nothing is
// logged). A nil error with ok=true is the durability promise: the
// record is on disk (or durability is off) and the write may be
// acknowledged. A non-nil error means the caller must NOT ack
// (liveserver answers "ERR wal"): a failed append left the store
// untouched; a failed fsync left the logged record applied.
func (s *Shard) DurableSet(key, value []byte) (ok bool, err error) {
	u := s.snapshot()
	if !u.store.Fits(key, value) {
		return false, nil
	}
	if u.walErr != nil {
		return true, u.walErr
	}
	// Append and apply under one lock hold: log order is apply order.
	var lsn uint64
	s.storeMu.Lock()
	if u.wal != nil {
		lsn, err = u.wal.Append(key, value)
	}
	if err == nil {
		u.store.Set(key, value)
	}
	s.storeMu.Unlock()
	if err != nil || u.wal == nil {
		return true, err
	}
	if err := u.wal.Sync(lsn); err != nil {
		return true, err
	}
	s.maybeSnapshot(u)
	return true, nil
}

// maybeSnapshot kicks off an async snapshot of the partition when the
// log says one is due. The entry set and its covering LSN are captured
// atomically under storeMu (no append can land between them); only the
// file write happens off the hot path.
func (s *Shard) maybeSnapshot(u *unit) {
	if !u.wal.SnapshotDue() || !u.wal.BeginSnapshot() {
		return
	}
	s.storeMu.Lock()
	upTo := u.wal.LastLSN()
	var entries []wal.Entry
	u.store.Range(func(k, v []byte) bool {
		entries = append(entries, wal.Entry{Key: k, Value: v})
		return true
	})
	s.storeMu.Unlock()
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		u.wal.WriteSnapshot(upTo, entries) //nolint:errcheck // failures are counted in wal.Stats
	}()
}

// WALStats reports the shard's durability counters accumulated across
// every generation, like Stats does for the pool. Zero when durability
// is off.
func (s *Shard) WALStats() wal.Stats {
	s.mu.Lock()
	st := s.walRetired
	u := s.cur.Load()
	folded := u.folded
	s.mu.Unlock()
	if u.wal != nil && !folded {
		st.Add(u.wal.Stats())
	}
	return st
}

// Engine exposes the current generation's compression engine.
func (s *Shard) Engine() *bejob.Engine { return s.snapshot().engine }

// Brownout exposes the current generation's degradation controller.
func (s *Shard) Brownout() *brownout.Controller { return s.snapshot().ctl }

// BrownoutState reports the admission path's view of the controller.
func (s *Shard) BrownoutState() brownout.State {
	return brownout.State(s.bstate.Load())
}

// Breaker exposes a class's circuit breaker (nil when disabled).
func (s *Shard) Breaker(class preemptible.Class) *breaker.Breaker {
	return s.snapshot().breakers[class]
}

// Inflight reports the shard's currently admitted request count.
func (s *Shard) Inflight() int64 { return s.inflight.Load() }

// Snapshot reads the shard's per-class admission counters and
// completed-request latency summaries (microseconds) in one acquisition
// of the histogram lock, and merges the same histograms into merged
// when it is non-nil (same precision required: both sides use
// stats.NewHistogram). One call feeds both a per-shard block and the
// group totals, so a document built from it cannot disagree with itself;
// the merge makes group quantiles a true distribution merge rather than
// a max over shards. Both accumulate across restarts.
func (s *Shard) Snapshot(merged *[preemptible.NumClasses]*stats.Histogram) (
	cs [preemptible.NumClasses]ClassCounters, lat [preemptible.NumClasses]stats.Snapshot,
) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	for c := range s.counters {
		cs[c] = s.counters[c].load()
		lat[c] = s.lat[c].Snapshot()
		if merged != nil {
			merged[c].Merge(s.lat[c])
		}
	}
	return cs, lat
}

// Stats reports the shard's pool counters accumulated across every
// generation: retired (drained) pools' terminal buckets plus the live
// pool. Latency fields (Mean/P50/P99/QuantumNow) describe the live
// generation only.
func (s *Shard) Stats() preemptible.PoolStats {
	s.mu.Lock()
	retired := s.retired
	u := s.cur.Load()
	folded := u.folded
	s.mu.Unlock()
	live := u.pool.Stats()
	if folded {
		// retired already holds this pool's counters; keep its latency.
		live = preemptible.PoolStats{QuantumNow: live.QuantumNow, Mean: live.Mean, P50: live.P50, P99: live.P99}
	}
	addPoolStats(&live, retired)
	return live
}

// addPoolStats folds src's counter fields into dst, leaving dst's
// latency summary alone.
func addPoolStats(dst *preemptible.PoolStats, src preemptible.PoolStats) {
	dst.Submitted += src.Submitted
	dst.Completed += src.Completed
	dst.Preemptions += src.Preemptions
	dst.Failed += src.Failed
	dst.Shed += src.Shed
	dst.CancelledQueued += src.CancelledQueued
	dst.CancelledExecuting += src.CancelledExecuting
	dst.ExpiredQueued += src.ExpiredQueued
	dst.ExpiredExecuting += src.ExpiredExecuting
	dst.DegradedRuns += src.DegradedRuns
	for c := range dst.PerClass {
		d, sc := &dst.PerClass[c], src.PerClass[c]
		d.Submitted += sc.Submitted
		d.Completed += sc.Completed
		d.Shed += sc.Shed
		d.CancelledQueued += sc.CancelledQueued
		d.CancelledExecuting += sc.CancelledExecuting
		d.ExpiredQueued += sc.ExpiredQueued
		d.ExpiredExecuting += sc.ExpiredExecuting
		d.Failed += sc.Failed
	}
}

// brownoutLoop samples one generation's load at the configured period
// and drives its controller — the per-shard twin of the pre-sharding
// server loop. It exits when the generation is retired.
func (s *Shard) brownoutLoop(u *unit) {
	defer s.loopWG.Done()
	tick := time.NewTicker(s.cfg.BrownoutPeriod)
	defer tick.Stop()
	for {
		select {
		case <-u.loopStop:
			return
		case now := <-tick.C:
			var sig brownout.Signal
			if s.cfg.MaxInflight > 0 {
				offered := float64(s.inflight.Load()) + float64(s.rejectsWin.Swap(0))
				sig.Occupancy = offered / float64(s.cfg.MaxInflight)
			}
			if wait := u.pool.OldestWait(now); wait > 0 {
				sig.DelayRatio = float64(wait) / float64(s.cfg.BrownoutDelayTarget)
			}
			prev := brownout.State(s.bstate.Load())
			st := u.ctl.Observe(now, sig)
			s.bstate.Store(int32(st))
			if st != prev && st != brownout.Normal {
				u.pool.EvictClass(preemptible.ClassBE)
			}
		}
	}
}

// Do pushes one request task through the shard's overload-protected,
// class-aware admission path and counts its outcome — exactly one
// counter per call, on every return path. The first gate is lifecycle:
// a shard that is Restarting or Dead answers Unavailable before any
// load logic runs. Then SHED rejects everyone, BROWNOUT rejects BE (LC
// bypasses the inflight cap), the inflight cap rejects, then the class's
// circuit breaker. See the package comment for the partial-failure
// contract.
func (s *Shard) Do(class preemptible.Class, task preemptible.Task, opts DoOptions) Result {
	st := s.BrownoutState()
	c := &s.counters[class]
	c.requests.Add(1)
	if opts.Attempt > 0 {
		c.reattempts.Add(1)
	}
	if s.Health() != Healthy {
		c.unavailable.Add(1)
		return Result{Unavailable, st}
	}
	u := s.snapshot()
	if st == brownout.Shed || (st == brownout.Brownout && class == preemptible.ClassBE) {
		s.rejectsWin.Add(1)
		c.rejected[st].Add(1)
		if st == brownout.Shed {
			return Result{RejectedShed, st}
		}
		return Result{RejectedBrownout, st}
	}
	lcBypass := st == brownout.Brownout && class == preemptible.ClassLC
	if n := s.inflight.Add(1); s.cfg.MaxInflight > 0 && n > int64(s.cfg.MaxInflight) && !lcBypass {
		s.inflight.Add(-1)
		s.rejectsWin.Add(1)
		c.rejected[st].Add(1)
		return Result{RejectedInflight, st}
	}
	// Circuit breaker, last gate before the pool. Breaker rejects are
	// deliberately NOT folded into rejectsWin: a crashing class is
	// faulty, not heavy, and must not push the brownout controller
	// toward shedding healthy traffic.
	br := u.breakers[class]
	if br != nil && !br.Allow(time.Now()) {
		s.inflight.Add(-1)
		c.unavailable.Add(1)
		return Result{Unavailable, st}
	}
	// The pool's synchronous entry: submit, wait for the task to settle,
	// and — when the client disconnects first (Gone) — evict or unwind
	// it, then wait for the settlement that always eventually comes.
	lat, state, err := u.pool.SubmitWaitWithOptions(task, preemptible.SubmitOptions{
		Class:         class,
		Deadline:      opts.Deadline,
		Expire:        !opts.Deadline.IsZero(),
		PickupTimeout: s.cfg.RequestTimeout,
	}, opts.Gone)
	s.inflight.Add(-1)
	if err != nil {
		// Pool draining or closed — the shard is being torn down under
		// us; same signal as the lifecycle gate.
		if br != nil {
			br.Abandon(time.Now())
		}
		c.unavailable.Add(1)
		return Result{Unavailable, st}
	}
	switch {
	case lat == preemptible.FailedLatency:
		if br != nil {
			br.Failure(time.Now())
		}
		c.failed.Add(1)
		return Result{Failed, st}
	case lat == preemptible.CancelledLatency:
		if br != nil {
			br.Abandon(time.Now())
		}
		c.cancelled.Add(1)
		if state == preemptible.TaskCancelledQueued {
			return Result{CancelledQueued, st}
		}
		return Result{CancelledExecuting, st}
	case lat == preemptible.ExpiredLatency:
		if br != nil {
			br.Abandon(time.Now())
		}
		if state == preemptible.TaskExpiredQueued {
			c.expiredQueued.Add(1)
			return Result{ExpiredQueued, st}
		}
		c.expiredExecuting.Add(1)
		return Result{ExpiredExecuting, st}
	case lat < 0:
		// Shed from the queue: a brownout eviction (BE, while degraded)
		// or a RequestTimeout expiry.
		if br != nil {
			br.Abandon(time.Now())
		}
		now := s.BrownoutState()
		if class == preemptible.ClassBE && now != brownout.Normal {
			c.evicted.Add(1)
			return Result{Evicted, now}
		}
		c.timeouts.Add(1)
		return Result{Timeout, now}
	}
	if br != nil {
		br.Success(time.Now())
	}
	s.latMu.Lock()
	c.completed.Add(1)
	s.lat[class].Record(lat.Microseconds())
	s.latMu.Unlock()
	return Result{OK, st}
}

// probe submits one trivial LC heartbeat task directly to the shard's
// pool (bypassing admission — the question is "can this pool still run
// anything", not "would admission let it in") and waits up to timeout
// for it to complete. A wedged pool never picks the probe up; the probe
// is then cancelled so it cannot pile up behind its siblings.
func (s *Shard) probe(timeout time.Duration) bool {
	giveUp := make(chan struct{})
	t := time.AfterFunc(timeout, func() { close(giveUp) })
	defer t.Stop()
	lat, _, err := s.snapshot().pool.SubmitWaitWithOptions(func(*preemptible.Ctx) {}, preemptible.SubmitOptions{
		Class:         preemptible.ClassLC,
		PickupTimeout: timeout,
	}, giveUp)
	return err == nil && lat >= 0
}

// Wedge simulates a hard shard failure: every worker is occupied by a
// task that never reaches a safepoint — the preemptible runtime cannot
// preempt it, cancel-unwind cannot reach it, and the pool's
// arrivals-first dispatch never gets the worker back, so heartbeat
// probes stop completing. (A task that merely ran long but kept
// checkpointing would NOT wedge the shard: fresh short arrivals,
// probes included, preempt long work by design. The fault modeled here
// is the kind scheduling cannot route around — a stuck syscall, a
// livelocked lock, a runaway handler.) A couple of extra tasks clog
// the queue behind the stuck ones. The only way the wedge clears is
// the unit's teardown closing killed — the supervisor restart, which
// is exactly the repair under test. Detection must come from missed
// heartbeats, not from this call: health is untouched here.
func (s *Shard) Wedge() {
	u := s.snapshot()
	killed := u.killed
	wedge := func(*preemptible.Ctx) {
		for {
			select {
			case <-killed:
				return
			default:
			}
			time.Sleep(time.Millisecond) // yield the OS thread, never the scheduler
		}
	}
	for i := 0; i < s.cfg.Workers+2; i++ {
		// Inflight bookkeeping keeps the brownout controller honest
		// about the wedge load; errors (already draining) are fine —
		// the shard is dying anyway.
		s.inflight.Add(1)
		_, err := u.pool.SubmitWithOptions(wedge, preemptible.SubmitOptions{Class: preemptible.ClassLC},
			func(time.Duration) { s.inflight.Add(-1) })
		if err != nil {
			s.inflight.Add(-1)
			return
		}
	}
}

// retire drains the current generation and folds its counters into the
// retired accumulator. Caller must have already moved health out of
// Healthy so no new work lands on the dying pool.
func (s *Shard) retire(ctx context.Context) {
	s.mu.Lock()
	u := s.cur.Load()
	if u.retired {
		s.mu.Unlock()
		return
	}
	u.retired = true
	s.mu.Unlock()
	close(u.killed)   // reclaim wedged workers; see the killed field
	u.pool.Drain(ctx) //nolint:errcheck // stragglers are cancelled either way
	close(u.loopStop)
	s.loopWG.Wait()
	// The pool is drained: no request can append anymore. Wait out any
	// in-flight snapshot writer, then close the log — its final flush
	// covers the tail — and fold its counters so WALStats stays a pure
	// accumulation across generations.
	var wst wal.Stats
	if u.wal != nil {
		s.snapWG.Wait()
		u.wal.Close() //nolint:errcheck // best-effort final flush; acks were already synced
		wst = u.wal.Stats()
	}
	s.mu.Lock()
	addPoolStats(&s.retired, u.pool.Stats())
	s.walRetired.Add(wst)
	u.folded = true
	s.mu.Unlock()
}

// rebuild is the supervisor's repair path: retire the wedged
// generation (drain cancels its stragglers), then install a fresh
// pool + store partition + reset controller and breakers, and
// re-admit. With durability configured the new partition is recovered
// from the WAL inside buildUnit — every SET acknowledged before the
// failure is back before the shard serves again; without it the
// partition restarts empty. The shard must be in Restarting when
// called; it is Healthy again on return.
func (s *Shard) rebuild(ctx context.Context) {
	if s.Health() != Restarting {
		panic("shard: rebuild outside Restarting")
	}
	s.retire(ctx)
	s.mu.Lock()
	s.cur.Store(s.buildUnit())
	s.gen++
	s.mu.Unlock()
	if !s.casHealth(Restarting, Healthy) {
		panic("shard: health changed mid-rebuild")
	}
}

// close retires the shard permanently (process shutdown or terminal
// escalation). Idempotent via the health gate in Group.
func (s *Shard) close(ctx context.Context) {
	s.retire(ctx)
}
