package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/preemptible"
)

// SuperviseConfig parameterizes the group's shard supervisor.
type SuperviseConfig struct {
	// Disabled turns the supervisor off entirely: no heartbeats, no
	// automatic restarts (tests drive RestartShard by hand).
	Disabled bool
	// HeartbeatInterval is the probe cadence (default 50ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one probe's completion (default: the
	// interval). A probe not completed within it is a miss.
	HeartbeatTimeout time.Duration
	// MissThreshold is how many consecutive missed heartbeats declare a
	// shard failed (default 2) — one slow probe under load is not an
	// outage.
	MissThreshold int
	// RestartDrain bounds the failed shard's drain: at the deadline the
	// old pool's stragglers (wedge tasks included) are cancelled through
	// the cancel-unwind path (default 500ms).
	RestartDrain time.Duration
	// MaxRestarts is the restart budget: more than this many restarts
	// within RestartWindow escalates the shard to terminal Dead — a
	// flapping shard stops being repaired (0 = unlimited).
	MaxRestarts int
	// RestartWindow is the sliding window the budget counts in
	// (default 10s).
	RestartWindow time.Duration
}

func (c SuperviseConfig) withDefaults() SuperviseConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatInterval
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 2
	}
	if c.RestartDrain <= 0 {
		c.RestartDrain = 500 * time.Millisecond
	}
	if c.RestartWindow <= 0 {
		c.RestartWindow = 10 * time.Second
	}
	return c
}

// Group is N bulkhead shards behind a rendezvous router, plus the
// supervisor that detects, repairs, and — past the restart budget —
// retires failed shards. All shards share one preemptible.Runtime (its
// context free lists) and nothing else.
type Group struct {
	rt     *preemptible.Runtime
	scfg   SuperviseConfig
	shards []*Shard
	router Router

	// restartMu guards the budget bookkeeping (miss counts live in the
	// supervisor goroutine; these are also reachable via RestartShard).
	restartMu    sync.Mutex
	restartTimes [][]time.Time
	restarts     []atomic.Uint64

	restartWG sync.WaitGroup // outstanding rebuild goroutines
	done      chan struct{}
	loopWG    sync.WaitGroup
	closed    sync.Once
}

// NewGroup builds n shards (n ≥ 1) over rt and starts the supervisor.
func NewGroup(rt *preemptible.Runtime, n int, cfg Config, scfg SuperviseConfig) *Group {
	if n < 1 {
		panic("shard: group needs at least one shard")
	}
	g := &Group{
		rt:           rt,
		scfg:         scfg.withDefaults(),
		shards:       make([]*Shard, n),
		router:       NewRouter(n),
		restartTimes: make([][]time.Time, n),
		restarts:     make([]atomic.Uint64, n),
		done:         make(chan struct{}),
	}
	for i := range g.shards {
		g.shards[i] = newShard(rt, i, cfg)
	}
	if !g.scfg.Disabled {
		g.loopWG.Add(1)
		go g.supervise()
	}
	return g
}

// N reports the shard count.
func (g *Group) N() int { return len(g.shards) }

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Route returns key's shard index — a pure function of (key, N), never
// of shard health: a dead shard's keys stay its keys (see Router).
func (g *Group) Route(key []byte) int { return g.router.Route(key) }

// NextHealthy returns the first Healthy shard scanning circularly from
// start, or -1 when every shard is down. Keyless work (PING, COMPRESS)
// has no placement constraint, so it gets routed around outages.
func (g *Group) NextHealthy(start int) int {
	n := len(g.shards)
	if n == 0 {
		return -1
	}
	start %= n
	if start < 0 {
		start += n
	}
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if g.shards[i].Health() == Healthy {
			return i
		}
	}
	return -1
}

// Do runs one request on shard i (see Shard.Do).
func (g *Group) Do(i int, class preemptible.Class, task preemptible.Task, opts DoOptions) Result {
	return g.shards[i].Do(class, task, opts)
}

// Restarts reports how many times shard i has been restarted.
func (g *Group) Restarts(i int) uint64 { return g.restarts[i].Load() }

// KillShard wedges shard i (test/chaos entry): its workers are occupied
// by safepoint-spinning tasks until the supervisor detects the missed
// heartbeats and drains it. Detection, not this call, changes health.
func (g *Group) KillShard(i int) { g.shards[i].Wedge() }

// supervise is the heartbeat loop: every tick it probes every healthy
// shard in parallel and sends shards that miss MissThreshold
// consecutive probes through the restart path.
func (g *Group) supervise() {
	defer g.loopWG.Done()
	tick := time.NewTicker(g.scfg.HeartbeatInterval)
	defer tick.Stop()
	miss := make([]int, len(g.shards))
	for {
		select {
		case <-g.done:
			return
		case <-tick.C:
		}
		ok := make([]bool, len(g.shards))
		var wg sync.WaitGroup
		for i, s := range g.shards {
			if s.Health() != Healthy {
				miss[i] = 0
				continue
			}
			wg.Add(1)
			go func(i int, s *Shard) {
				defer wg.Done()
				ok[i] = s.probe(g.scfg.HeartbeatTimeout)
			}(i, s)
		}
		wg.Wait()
		for i, s := range g.shards {
			if s.Health() != Healthy {
				continue
			}
			if ok[i] {
				miss[i] = 0
				continue
			}
			if miss[i]++; miss[i] >= g.scfg.MissThreshold {
				miss[i] = 0
				g.RestartShard(i)
			}
		}
	}
}

// RestartShard sends shard i through the failure path: Healthy →
// Restarting (its keys start answering Unavailable immediately), then
// an async drain + rebuild re-admits it — unless the restart budget is
// already spent, in which case the shard escalates to terminal Dead and
// is drained for good. No-op unless the shard is currently Healthy, so
// the supervisor and tests can race calls harmlessly.
func (g *Group) RestartShard(i int) {
	s := g.shards[i]
	if !s.casHealth(Healthy, Restarting) {
		return
	}
	now := time.Now()
	g.restartMu.Lock()
	times := g.restartTimes[i][:0]
	for _, t := range g.restartTimes[i] {
		if now.Sub(t) < g.scfg.RestartWindow {
			times = append(times, t)
		}
	}
	overBudget := g.scfg.MaxRestarts > 0 && len(times) >= g.scfg.MaxRestarts
	if !overBudget {
		times = append(times, now)
	}
	g.restartTimes[i] = times
	g.restartMu.Unlock()

	if overBudget {
		// Flapping: repair is not converging. Retire the shard
		// permanently; siblings keep serving their keys.
		if !s.casHealth(Restarting, Dead) {
			panic("shard: health changed during escalation")
		}
		g.restartWG.Add(1)
		go func() {
			defer g.restartWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), g.scfg.RestartDrain)
			defer cancel()
			s.retire(ctx)
		}()
		return
	}
	g.restarts[i].Add(1)
	g.restartWG.Add(1)
	go func() {
		defer g.restartWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), g.scfg.RestartDrain)
		defer cancel()
		s.rebuild(ctx)
	}()
}

// PoolStats aggregates pool counters across every shard and every
// generation (restarts lose nothing). Latency fields report the worst
// (max) across live shard pools; QuantumNow reports shard 0's.
func (g *Group) PoolStats() preemptible.PoolStats {
	var agg preemptible.PoolStats
	for i, s := range g.shards {
		st := s.Stats()
		if i == 0 {
			agg = st
			continue
		}
		addPoolStats(&agg, st)
		if st.Mean > agg.Mean {
			agg.Mean = st.Mean
		}
		if st.P50 > agg.P50 {
			agg.P50 = st.P50
		}
		if st.P99 > agg.P99 {
			agg.P99 = st.P99
		}
	}
	return agg
}

// stop halts the supervisor and waits out in-flight rebuilds.
func (g *Group) stop() {
	g.closed.Do(func() { close(g.done) })
	g.loopWG.Wait()
	g.restartWG.Wait()
}

// Close stops the supervisor and shuts every shard down, waiting for
// all queued and executing work (the Close analog of the old single
// pool).
func (g *Group) Close() {
	g.stop()
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.close(context.Background())
		}(s)
	}
	wg.Wait()
}

// Drain gracefully drains every shard under ctx's deadline, cancelling
// stragglers at the deadline. Returns nil on a complete drain, else the
// first ctx error observed.
func (g *Group) Drain(ctx context.Context) error {
	g.stop()
	errs := make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			errs[i] = s.Pool().Drain(ctx)
			s.close(ctx)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
