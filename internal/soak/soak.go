// Package soak is the long-haul harness: it runs the full live stack —
// sharded preemptible server, supervisor, tail-tolerant client —
// under a seeded composition of every injector the repo has (wire
// faults, shard kills, panic poisoning, latency bursts) while
// *continuously* checking the invariants the resilience PRs promised:
//
//   - model: every GET answers a value some client attempted to write
//     to that key (or NOT_FOUND / a protocol rejection) — fabricated,
//     cross-keyed, or replayed data is a violation;
//   - conservation: every STATS2 sample satisfies totals == Σ shards
//     for every counter, through restarts;
//   - drift: goroutines, fds, and heap return to baseline after
//     teardown.
//
// The fault schedule is a Plan — a pure function of (seed, scenario,
// duration, shards), rendered before the run and embedded in the
// report — so two soaks with the same seed face byte-identical fault
// schedules, and a failure reproduces from its report line alone.
// Each run appends one JSON line to the report file (append-only: a
// nightly job accretes history instead of overwriting it).
package soak

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/liveserver"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tailclient"
	"repro/preemptible"
)

// Scenario names. Each enables a subset of the injectors; combined is
// the nightly default.
const (
	ScenarioQuiet    = "quiet"    // no injected faults: a pure leak/conservation soak
	ScenarioWire     = "wire"     // wire faults only
	ScenarioKills    = "kills"    // shard kills only
	ScenarioCombined = "combined" // wire + kills + panic poisoning
	// ScenarioCrash runs the WAL-enabled server as a child process and
	// SIGKILLs the whole process at planned times — the only fault the
	// in-process injectors cannot model. After every restart the parent
	// verifies each acknowledged SET recovered from the write-ahead log
	// (see crash.go). Requires ServerMainIfRequested wired into main().
	ScenarioCrash = "crash"
)

// Config parameterizes one soak run.
type Config struct {
	// Seed fixes the entire fault schedule and all client traffic.
	Seed uint64
	// Duration is the soak length (default 60s).
	Duration time.Duration
	// Scenario selects the injector set (default combined).
	Scenario string
	// Shards/Clients size the server and the worker pool (defaults 4/8).
	Shards, Clients int
	// ReportPath, when non-empty, receives one appended JSON line.
	ReportPath string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// WrapConn, when non-nil, wraps every client connection. This is
	// the broken-build test hook: a wrapper that fabricates or reorders
	// response bytes must be caught by the checkers.
	WrapConn func(net.Conn) net.Conn
	// WALDir is the crash scenario's durable directory, shared across
	// the child server's restarts (empty = a temp dir removed at the
	// end; set it to keep the WAL for post-mortem).
	WALDir string
	// WALLie runs the crash scenario's child server on a WAL filesystem
	// that silently drops every write (a chaos.FS crash point at byte
	// 1) — the deliberately broken build the durability checker must
	// catch. Test-only.
	WALLie bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * time.Second
	}
	if cfg.Scenario == "" {
		cfg.Scenario = ScenarioCombined
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	return cfg
}

func (cfg Config) wantWire() bool {
	return cfg.Scenario == ScenarioWire || cfg.Scenario == ScenarioCombined
}

func (cfg Config) wantKills() bool {
	return cfg.Scenario == ScenarioKills || cfg.Scenario == ScenarioCombined
}

func (cfg Config) wantPanics() bool { return cfg.Scenario == ScenarioCombined }

func (cfg Config) wantCrashes() bool { return cfg.Scenario == ScenarioCrash }

// FaultWindow is one interval during which wire faults are armed.
type FaultWindow struct {
	FromMicros int64 `json:"from_us"`
	ToMicros   int64 `json:"to_us"`
}

// KillEvent is one scheduled shard kill.
type KillEvent struct {
	AtMicros int64 `json:"at_us"`
	Shard    int   `json:"shard"`
}

// CrashEvent is one scheduled whole-process SIGKILL (crash scenario).
type CrashEvent struct {
	AtMicros int64 `json:"at_us"`
}

// Plan is the rendered fault schedule: a pure function of the config's
// (Seed, Scenario, Duration, Shards). Nothing in it depends on wall
// clock or execution interleaving, so Encode is byte-identical across
// runs with the same inputs — the acceptance bar for reproducibility.
type Plan struct {
	Seed           uint64        `json:"seed"`
	Scenario       string        `json:"scenario"`
	DurationMicros int64         `json:"duration_us"`
	Shards         int           `json:"shards"`
	Wire           []FaultWindow `json:"wire"`
	Kills          []KillEvent   `json:"kills"`
	Crashes        []CrashEvent  `json:"crashes"`
}

// Encode renders the plan as compact JSON.
func (p Plan) Encode() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // no unmarshalable types in Plan
	}
	return b
}

// killTick is the cadence of the kill chains, and killSeedChild etc.
// pin the seed-tree layout: changing any of these changes every
// schedule, so they are constants, not config.
const (
	killTick       = 250 * time.Millisecond
	wireSeedChild  = 1
	killSeedChild  = 2
	wireConnChild  = 3
	panicSeedChild = 4
	crashSeedChild = 5
	clientChild    = 6
	workerChild    = 100
	thinkChild     = 300
)

// BuildPlan renders cfg's fault schedule. Wire fault windows come from
// a Gilbert–Elliott burst schedule (faults armed during bad windows);
// kills from one independent per-shard kill chain stepped at a fixed
// tick.
func BuildPlan(cfg Config) Plan {
	cfg = cfg.withDefaults()
	p := Plan{
		Seed:           cfg.Seed,
		Scenario:       cfg.Scenario,
		DurationMicros: cfg.Duration.Microseconds(),
		Shards:         cfg.Shards,
		Wire:           []FaultWindow{},
		Kills:          []KillEvent{},
		Crashes:        []CrashEvent{},
	}
	if cfg.wantWire() {
		for _, w := range chaos.BurstWindows(chaos.ChildSeed(cfg.Seed, wireSeedChild),
			700*time.Millisecond, 250*time.Millisecond, cfg.Duration) {
			if w.Bad {
				p.Wire = append(p.Wire, FaultWindow{
					FromMicros: w.From.Microseconds(), ToMicros: w.To.Microseconds(),
				})
			}
		}
	}
	if cfg.wantKills() {
		sk := chaos.NewShardKill(chaos.ShardKillConfig{
			Seed:     chaos.ChildSeed(cfg.Seed, killSeedChild),
			Shards:   cfg.Shards,
			MeanUp:   12, // ticks: ~3s healthy between bursts
			MeanDown: 1,
			KillProb: 0.6,
		})
		for at := killTick; at <= cfg.Duration; at += killTick {
			for s := 0; s < cfg.Shards; s++ {
				if sk.Step(s) {
					p.Kills = append(p.Kills, KillEvent{AtMicros: at.Microseconds(), Shard: s})
				}
			}
		}
	}
	if cfg.wantCrashes() {
		// Seeded gaps of 0.9–1.5s between whole-process kills: long
		// enough for the restarted child to recover and re-accumulate
		// acknowledged writes, short enough that even a brief soak
		// exercises several recoveries.
		rng := sim.NewRNG(chaos.ChildSeed(cfg.Seed, crashSeedChild))
		for at := time.Duration(0); ; {
			at += 900*time.Millisecond + time.Duration(rng.Intn(int(600*time.Millisecond)))
			if at > cfg.Duration {
				break
			}
			p.Crashes = append(p.Crashes, CrashEvent{AtMicros: at.Microseconds()})
		}
	}
	return p
}

// ReportSchemaVersion identifies the report line layout. Schema 2
// added the environment header (go_version, gomaxprocs) and the crash
// scenario's durability fields — all additive, so schema-1 lines in an
// accreted nightly file still parse; the version lets a reader know
// which fields it may rely on.
const ReportSchemaVersion = 2

// Report is one soak run's result line.
type Report struct {
	Schema int `json:"schema"`
	// Environment header: the toolchain and parallelism the run
	// actually executed under, so a report line from a nightly file
	// carries enough context to reproduce or discount it.
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Plan       Plan              `json:"plan"`
	Clients    int               `json:"clients"`
	Ops        map[string]uint64 `json:"ops"` // keyed by client outcome
	WireFaults uint64            `json:"wire_faults"`
	Restarts   uint64            `json:"restarts"`
	Samples    uint64            `json:"samples"` // conservation samples taken

	// Crash-scenario durability ledger (zero in other scenarios):
	// process kills executed, SETs acknowledged by the child server,
	// and acked keys re-verified readable after recoveries.
	Crashes      uint64 `json:"crashes"`
	AckedWrites  uint64 `json:"acked_writes"`
	VerifiedKeys uint64 `json:"verified_keys"`

	Violations []string `json:"violations"`
	// ViolationsTotal can exceed len(Violations): the list is capped.
	ViolationsTotal uint64 `json:"violations_total"`
}

// newReport stamps the environment header every scenario shares.
func newReport(plan Plan, clients int) *Report {
	return &Report{
		Schema:     ReportSchemaVersion,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Plan:       plan,
		Clients:    clients,
		Violations: []string{},
	}
}

// Run executes one soak and returns its report. A non-nil error means
// the harness itself failed to run; invariant violations are not an
// error — they are the report's payload.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	plan := BuildPlan(cfg)
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "soak: "+format+"\n", args...)
		}
	}
	logf("plan: scenario=%s duration=%s shards=%d wire-windows=%d kills=%d crashes=%d",
		cfg.Scenario, cfg.Duration, cfg.Shards, len(plan.Wire), len(plan.Kills), len(plan.Crashes))

	if cfg.wantCrashes() {
		rep, err := runCrash(cfg, plan, logf)
		if err != nil {
			return nil, err
		}
		if cfg.ReportPath != "" {
			if err := appendReport(cfg.ReportPath, rep); err != nil {
				return rep, err
			}
		}
		return rep, nil
	}

	v := &violations{}
	drift := newDriftChecker()

	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	// The poison walker's schedule: nil (poisons nothing) unless the
	// scenario wants panics. Workers step it once per op.
	var poison *chaos.PanicInjector
	if cfg.wantPanics() {
		poison = chaos.NewPanicInjector(chaos.PanicConfig{
			Seed: chaos.ChildSeed(cfg.Seed, panicSeedChild), Prob: 0.002,
		})
	}
	srv := liveserver.New(rt, liveserver.Config{
		Shards:       cfg.Shards,
		Workers:      2,
		Quantum:      500 * time.Microsecond,
		IdleTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		Supervise: shard.SuperviseConfig{
			HeartbeatInterval: 25 * time.Millisecond,
			MissThreshold:     2,
			RestartDrain:      150 * time.Millisecond,
		},
		SuperviseEnabled: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveLn := ln
	var wln *chaos.Listener
	if cfg.wantWire() {
		wln = chaos.NewListener(ln, chaos.WireConfig{
			Seed:             chaos.ChildSeed(cfg.Seed, wireConnChild),
			PartialWriteProb: 0.05,
			StallProb:        0.05,
			StallMean:        3 * time.Millisecond,
			ResetProb:        0.01,
			HalfOpenProb:     0.005,
			Burst: &chaos.GEConfig{
				Seed: chaos.ChildSeed(cfg.Seed, wireConnChild+100), MeanGood: 200, MeanBad: 50,
			},
		})
		wln.SetActive(false) // armed per plan window
		serveLn = wln
	}
	go srv.Serve(serveLn) //nolint:errcheck

	tc := tailclient.New(tailclient.Config{
		Addr:       ln.Addr().String(),
		OpDeadline: 300 * time.Millisecond,
		IOTimeout:  400 * time.Millisecond,
		Hedge:      true,
		MaxConns:   cfg.Clients + 4,
		Seed:       chaos.ChildSeed(cfg.Seed, clientChild),
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			if cfg.WrapConn != nil {
				c = cfg.WrapConn(c)
			}
			return c, nil
		},
	})

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

	var wg sync.WaitGroup

	// Wire window walker: arm faults for each planned bad window.
	if wln != nil && len(plan.Wire) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wln.SetActive(false)
			for _, w := range plan.Wire {
				if !sleepUntil(time.Duration(w.FromMicros) * time.Microsecond) {
					return
				}
				wln.SetActive(true)
				if !sleepUntil(time.Duration(w.ToMicros) * time.Microsecond) {
					return
				}
				wln.SetActive(false)
			}
		}()
	}

	// Kill walker: fire each planned kill; the supervisor detects the
	// wedge via missed heartbeats and restarts the shard in place.
	if len(plan.Kills) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range plan.Kills {
				if !sleepUntil(time.Duration(k.AtMicros) * time.Microsecond) {
					return
				}
				srv.Group().KillShard(k.Shard)
			}
		}()
	}

	// Conservation sampler: every STATS2 document, at any instant —
	// mid-kill, mid-restart, mid-burst — must balance. Samples round-
	// trip through the wire encoding so the encode/decode path is
	// exercised without a fault-injected transport making it flaky.
	var samples uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			m, err := liveserver.DecodeMetricsV2(liveserver.EncodeMetricsV2(srv.MetricsV2()))
			if err != nil {
				v.add("conservation: STATS2 round-trip: %v", err)
				continue
			}
			checkConservation(m, v)
			atomic.AddUint64(&samples, 1)
		}
	}()

	// Workers: seeded mixed traffic with per-worker think-time bursts.
	model := newModelChecker(v)
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
			think := chaos.NewDelayChain(chaos.GEConfig{
				Seed: chaos.ChildSeed(cfg.Seed, thinkChild+uint64(w)), MeanGood: 50, MeanBad: 10,
			}, 2*time.Millisecond)
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(64)) }
			seq := 0
			for ctx.Err() == nil {
				var op, k string
				var keys []string
				kind := rng.Intn(100)
				switch {
				case kind < 40:
					k = key()
					seq++
					val := fmt.Sprintf("w%ds%d", w, seq)
					model.WillSet(k, val)
					op = "SET " + k + " " + val
				case kind < 75:
					k = key()
					op = "GET " + k
				case kind < 85:
					keys = []string{key(), key(), key()}
					op = "MGET " + keys[0] + " " + keys[1] + " " + keys[2]
				case kind < 92:
					op = "PING"
				default:
					op = "COMPRESS 2"
				}
				// Poison walker: on a hit, a panicking task of this op's
				// class goes to this op's shard through the same admission
				// path the op itself is about to take.
				if poison.Should() {
					g := srv.Group()
					class, sh := preemptible.ClassLC, w%g.N() // keyless ops run anywhere
					switch {
					case op == "COMPRESS 2":
						class = preemptible.ClassBE
					case keys != nil:
						sh = g.Route([]byte(keys[0]))
					case k != "":
						sh = g.Route([]byte(k))
					}
					g.Do(sh, class, poisonTask, shard.DoOptions{})
				}
				res, err := tc.Do(op)
				if err != nil {
					return // client closed
				}
				tally(res.Outcome.String())
				if res.Resp != "" {
					switch {
					case keys != nil:
						model.CheckMGet(keys, res.Resp)
					case op == "PING":
						model.CheckPing(res.Resp)
					case op == "COMPRESS 2":
						model.CheckCompress(res.Resp)
					case k != "" && op[0] == 'G':
						model.CheckGet(k, res.Resp)
					default:
						model.CheckSet(res.Resp)
					}
				}
				d := 100*time.Microsecond + think.Next()
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
		}(w)
	}

	<-ctx.Done()
	cancel()
	wg.Wait()
	logf("traffic drained, shutting down")
	tc.Close()

	var restarts uint64
	for i := 0; i < srv.Group().N(); i++ {
		restarts += srv.Group().Restarts(i)
	}
	var wireFaults uint64
	if wln != nil {
		wireFaults = wln.Counters().Total()
	}
	var failed uint64 // what the poison walker's tasks settled as
	for _, c := range srv.MetricsV2().Totals {
		failed += c.Failed
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(sctx); err != nil {
		v.add("teardown: Shutdown: %v", err)
	}
	scancel()
	rt.Close()
	ln.Close() //nolint:errcheck // Shutdown closed it; double-close is harmless here

	drift.Check(v)

	list, total := v.snapshot()
	rep := newReport(plan, cfg.Clients)
	rep.Ops = ops
	rep.WireFaults = wireFaults
	rep.Restarts = restarts
	rep.Samples = atomic.LoadUint64(&samples)
	rep.ViolationsTotal = total
	if list != nil {
		rep.Violations = list
	}
	logf("done: ops=%v wire-faults=%d restarts=%d failed=%d samples=%d violations=%d",
		ops, wireFaults, restarts, failed, rep.Samples, total)
	if cfg.ReportPath != "" {
		if err := appendReport(cfg.ReportPath, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// poisonTask is the body the poison walker submits: it panics mid-run,
// after one safepoint, the way a genuinely buggy handler would.
func poisonTask(ctx *preemptible.Ctx) {
	ctx.Checkpoint()
	panic("chaos: injected panic")
}

// appendReport appends one JSON line to path (creating it if needed).
func appendReport(path string, rep *Report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(b, '\n')); err != nil {
		return err
	}
	return f.Close()
}
