// Command preemkv runs the live preemptible key-value + compression
// server (internal/liveserver), or benchmarks one: a miniature,
// runnable version of the paper's §V-C colocation deployment.
//
// Serve:
//
//	preemkv -serve :7070 -workers 2 -quantum 500us
//
// Durable serve: with -wal each shard write-ahead logs acknowledged
// SETs (group-commit fsync by default) and snapshots its partition
// every -snapshotevery SETs; after a crash or restart the same -wal
// directory recovers every acknowledged write:
//
//	preemkv -serve :7070 -shards 4 -wal /tmp/preemkv-wal
//	preemkv -serve :7070 -wal /tmp/preemkv-wal -walsync always
//
// Benchmark (against a running server): mixed GET/SET traffic from
// several client connections while a COMPRESS stream occupies the
// pool, reporting KV latency percentiles:
//
//	preemkv -bench 127.0.0.1:7070 -clients 4 -ops 2000
//
// With -mix, each client interleaves latency-critical KV ops with
// best-effort COMPRESS ops in the given ratio and the report splits by
// class — the way to watch a brownout from the client side:
//
//	preemkv -bench 127.0.0.1:7070 -clients 8 -ops 2000 -mix 3:1
//
// Bench traffic flows through the tail-tolerant client
// (internal/tailclient): every op can carry an end-to-end deadline
// (-opdeadline, propagated to the server as a wire D token so doomed
// work is shed at dequeue), slow ops are hedged after an adaptive
// delay (-hedge/-hedgeq), and all re-attempt traffic — hedges and
// retries alike — draws from one global retry budget (-budget/-burst).
// Retryable rejections ("ERR overloaded", "ERR brownout", "ERR
// unavailable" — all mean "not now") are retried with budgeted
// full-jitter backoff but counted separately: brownout rejections are
// the server degrading BE on purpose, and unavailable means the
// class's circuit breaker is open — the server is containing a fault,
// not drowning. "ERR internal" (a contained panic) is terminal for the
// op and counted in the per-class failure rate. SIGINT aborts the
// bench promptly, even mid-backoff.
//
// In serve mode SIGINT/SIGTERM trigger a graceful drain: admission
// stops, in-flight requests finish until the -drain deadline, then
// stragglers are cancelled at their next safepoint. With -metrics, a
// tiny HTTP endpoint exports the same per-shard + group-total series
// as the STATS2 wire command (the v2 metrics plane):
//
//	preemkv -serve :7070 -metrics :9090
//	curl http://127.0.0.1:9090/metrics
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/liveserver"
	"repro/internal/shard"
	"repro/internal/tailclient"
	"repro/internal/wal"
	"repro/preemptible"
)

func main() {
	var (
		serveAddr = flag.String("serve", "", "address to serve on (e.g. :7070)")
		benchAddr = flag.String("bench", "", "server address to benchmark")
		workers   = flag.Int("workers", 2, "pool workers (serve mode)")
		quantum   = flag.Duration("quantum", 500*time.Microsecond, "pool quantum (serve mode)")
		maxConns  = flag.Int("maxconns", 0, "connection cap, shed beyond (serve mode; 0 = default 1024, -1 = unlimited)")
		maxInfl   = flag.Int("maxinflight", 0, "in-flight request cap (serve mode; 0 = default 64×workers, -1 = unlimited)")
		reqTO     = flag.Duration("reqtimeout", 0, "queue-wait timeout before a request is shed (serve mode; 0 = none)")
		maxLine   = flag.Int("maxline", 0, "request line byte cap (serve mode; 0 = default 1 MiB)")
		idleTO    = flag.Duration("idletimeout", 0, "reap connections idle this long with nothing in flight (serve mode; 0 = never)")
		writeTO   = flag.Duration("writetimeout", 0, "per-response write deadline against non-draining clients (serve mode; 0 = none)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGINT/SIGTERM (serve mode)")
		noBreaker = flag.Bool("nobreaker", false, "disable per-class circuit breakers (serve mode)")
		shards    = flag.Int("shards", 1, "bulkhead shard count: independent pool+store partitions behind a rendezvous router (serve mode)")
		supervise = flag.Bool("supervise", false, "heartbeat shards and restart wedged ones in place (serve mode)")
		hbEvery   = flag.Duration("hbinterval", 50*time.Millisecond, "supervisor heartbeat interval (serve mode, with -supervise)")
		maxRestrt = flag.Int("maxrestarts", 0, "restart budget per shard within -restartwindow before it is retired as dead (serve mode; 0 = unlimited)")
		restrtWin = flag.Duration("restartwindow", 10*time.Second, "sliding window for the restart budget (serve mode)")
		restrtDrn = flag.Duration("restartdrain", 500*time.Millisecond, "drain deadline when restarting a failed shard (serve mode)")
		metrics   = flag.String("metrics", "", "HTTP address exporting the STATS2 series at /metrics (serve mode; empty = disabled)")
		walDir    = flag.String("wal", "", "directory for per-shard write-ahead logs: SETs are acknowledged only after fsync and survive crashes/restarts (serve mode; empty = no durability)")
		walSync   = flag.String("walsync", "group", "WAL durability mode: group (amortized fsync), always (fsync per SET), off (ack before sync; crash may lose acked writes) (serve mode)")
		snapEvery = flag.Int("snapshotevery", 4096, "snapshot a shard's partition after this many logged SETs and truncate its WAL (serve mode; 0 = never)")
		clients   = flag.Int("clients", 4, "client connections (bench mode)")
		ops       = flag.Int("ops", 2000, "ops per client (bench mode)")
		compress  = flag.Bool("compress", true, "run a background COMPRESS stream during bench")
		mix       = flag.String("mix", "1:0", "LC:BE op mix per client, e.g. 3:1 (bench mode; BE = COMPRESS)")
		hedge     = flag.Bool("hedge", true, "hedge slow ops after the adaptive delay (bench mode)")
		hedgeQ    = flag.Float64("hedgeq", 0.95, "latency quantile that sets the hedge delay (bench mode)")
		opDL      = flag.Duration("opdeadline", 0, "end-to-end op deadline, propagated as a wire D token (bench mode; 0 = none)")
		budgetR   = flag.Float64("budget", 0.1, "retry-budget accrual per primary op (bench mode)")
		burst     = flag.Float64("burst", 10, "retry-budget burst cap (bench mode)")
		seed      = flag.Uint64("seed", 1, "deterministic seed for hedge/backoff jitter (bench mode)")
	)
	flag.Parse()

	switch {
	case *serveAddr != "":
		syncMode, err := wal.ParseSyncMode(*walSync)
		if err != nil {
			fatal(err)
		}
		serve(*serveAddr, liveserver.Config{
			Shards:          *shards,
			Workers:         *workers,
			Quantum:         *quantum,
			MaxConns:        *maxConns,
			MaxInflight:     *maxInfl,
			RequestTimeout:  *reqTO,
			MaxLineBytes:    *maxLine,
			IdleTimeout:     *idleTO,
			WriteTimeout:    *writeTO,
			BreakerDisabled: *noBreaker,
			WALDir:          *walDir,
			WALSync:         syncMode,
			SnapshotEvery:   *snapEvery,
			Supervise: shard.SuperviseConfig{
				HeartbeatInterval: *hbEvery,
				MaxRestarts:       *maxRestrt,
				RestartWindow:     *restrtWin,
				RestartDrain:      *restrtDrn,
			},
			SuperviseEnabled: *supervise,
		}, *drain, *metrics)
	case *benchAddr != "":
		lc, be, err := parseMix(*mix)
		if err != nil {
			fatal(err)
		}
		bench(*benchAddr, *clients, *ops, *compress, lc, be, tailclient.Config{
			Hedge:         *hedge,
			HedgeQuantile: *hedgeQ,
			OpDeadline:    *opDL,
			BudgetRatio:   *budgetR,
			BudgetBurst:   *burst,
			RetryMax:      retryMax,
			RetryBase:     retryBase,
			RetryCap:      retryCap,
			Seed:          *seed,
		})
	default:
		fmt.Fprintln(os.Stderr, "preemkv: need -serve <addr> or -bench <addr>")
		flag.Usage()
		os.Exit(2)
	}
}

func serve(addr string, cfg liveserver.Config, drain time.Duration, metricsAddr string) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	s := liveserver.New(rt, cfg)
	defer s.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.MetricsHandler())
		msrv := &http.Server{Handler: mux}
		defer msrv.Close()
		go msrv.Serve(mln) //nolint:errcheck // closed on shutdown
		fmt.Printf("preemkv metrics on http://%s/metrics\n", mln.Addr())
	}
	supervised := "unsupervised"
	if cfg.SuperviseEnabled {
		supervised = fmt.Sprintf("heartbeat every %v", cfg.Supervise.HeartbeatInterval)
	}
	durable := "no wal"
	if cfg.WALDir != "" {
		durable = fmt.Sprintf("wal %s (%v)", cfg.WALDir, cfg.WALSync)
	}
	fmt.Printf("preemkv serving on %s (%d shards × %d workers, %v quantum, %s, %s); Ctrl-C to stop\n",
		ln.Addr(), max(cfg.Shards, 1), cfg.Workers, cfg.Quantum, supervised, durable)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-stop
		fmt.Printf("preemkv: %v: draining (deadline %v)\n", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "preemkv: drain incomplete, stragglers cancelled: %v\n", err)
		}
	}()
	if err := s.Serve(ln); err != nil {
		fatal(err)
	}
	st := s.PoolStats()
	fmt.Printf("served: %d requests, %d preemptions, %d shed, %d degraded-runs, p99 %v\n",
		st.Completed, st.Preemptions, st.Shed, st.DegradedRuns, st.P99)
	m := s.MetricsV2()
	lc, be := m.Totals["lc"], m.Totals["be"]
	fmt.Printf("overload: %d conns shed, %d requests shed, %d brownout-rejected, %d timeouts, %d over-long lines; timer restarts %d\n",
		m.ShedConns, lc.RejectedNormal+lc.RejectedShed+be.RejectedNormal+be.RejectedShed,
		lc.RejectedBrownout+be.RejectedBrownout, lc.Timeouts+be.Timeouts, m.LineTooLong, rt.TimerRestarts())
	fmt.Printf("cancelled on disconnect: %d queued (evicted), %d executing (unwound at safepoint)\n",
		st.CancelledQueued, st.CancelledExecuting)
	fmt.Printf("brownout: %d transitions, final state %v, smoothed load %.3f\n",
		s.Brownout().Transitions(), s.BrownoutState(), s.Brownout().Load())
	now := time.Now()
	for c := 0; c < preemptible.NumClasses; c++ {
		if br := s.Breaker(preemptible.Class(c)); br != nil {
			line := fmt.Sprintf("breaker %v: state %v, %d trips", preemptible.Class(c), br.State(now), br.Trips())
			if h := br.History(); len(h) > 0 {
				line += ", transitions"
				for _, tr := range h {
					line += fmt.Sprintf(" %v→%v", tr.From, tr.To)
				}
			}
			fmt.Println(line)
		}
	}
	for c := 0; c < preemptible.NumClasses; c++ {
		class := preemptible.Class(c)
		pc := m.Totals[class.String()]
		fmt.Printf("  %v: %d requests, rejected %d normal / %d brownout / %d shed / %d unavailable, %d evicted, %d timeouts, %d failed\n",
			class, pc.Requests, pc.RejectedNormal, pc.RejectedBrownout, pc.RejectedShed,
			pc.Unavailable, pc.Evicted, pc.Timeouts, pc.Failed)
	}
	for _, sh := range m.PerShard {
		lc, be := sh.Classes["lc"], sh.Classes["be"]
		fmt.Printf("shard %d: %s, gen %d, %d restarts, %d LC + %d BE requests, %d unavailable, brownout %v\n",
			sh.Shard, sh.Health, sh.Generation, sh.Restarts,
			lc.Requests, be.Requests, lc.Unavailable+be.Unavailable, sh.Brownout)
		if cfg.WALDir != "" {
			fmt.Printf("  wal: %d appends, %d fsyncs, %d snapshots, %d recovered records, recovery %v\n",
				sh.WAL.WalAppends, sh.WAL.WalFsyncs, sh.WAL.SnapshotCount, sh.WAL.WalRecoveredRecords,
				time.Duration(sh.WAL.RecoveryMillis)*time.Millisecond)
		}
	}
}

// parseMix parses an "lc:be" ratio like "3:1".
func parseMix(s string) (lc, be int, err error) {
	if n, _ := fmt.Sscanf(s, "%d:%d", &lc, &be); n != 2 || lc < 0 || be < 0 || lc+be == 0 {
		return 0, 0, fmt.Errorf("bad -mix %q: want lc:be with lc+be > 0, e.g. 3:1", s)
	}
	return lc, be, nil
}

// Retry policy for retryable rejections: exponential backoff with full
// jitter — each wait is uniform in [0, backoff), and backoff doubles
// from retryBase up to retryCap. Jitter decorrelates the clients, so a
// shed burst does not re-arrive as a synchronized burst. The policy
// lives in tailclient; these are just the bench's knob settings.
const (
	retryBase = 200 * time.Microsecond
	retryCap  = 50 * time.Millisecond
	retryMax  = 6
)

func bench(addr string, clients, ops int, withCompress bool, mixLC, mixBE int, ccfg tailclient.Config) {
	ccfg.Addr = addr
	if ccfg.MaxConns < clients+4 {
		// Room for one in-flight op per worker plus hedge headroom.
		ccfg.MaxConns = clients + 4
	}
	tc := tailclient.New(ccfg)
	defer tc.Close()

	// SIGINT aborts the bench: in-flight ops (including ones sleeping
	// out a retry backoff) return Aborted promptly and workers exit.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "preemkv: interrupted, aborting bench")
		tc.Close()
	}()
	stopCompress := make(chan struct{})
	var compressWG sync.WaitGroup
	if withCompress {
		compressWG.Add(1)
		go func() {
			defer compressWG.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "compress stream: %v\n", err)
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for {
				select {
				case <-stopCompress:
					return
				default:
				}
				if _, err := conn.Write([]byte("COMPRESS 64\n")); err != nil {
					return
				}
				if !sc.Scan() {
					return
				}
			}
		}()
	}

	// Per-class tallies, indexed by preemptible.Class. All workers share
	// one tail-tolerant client, so the retry budget is genuinely global
	// across the whole bench — amplification is bounded fleet-wide, not
	// per connection.
	var (
		mu          sync.Mutex
		lats        [preemptible.NumClasses][]time.Duration
		overloaded  [preemptible.NumClasses]uint64 // gave up on "ERR overloaded" (shed or timed out)
		browned     [preemptible.NumClasses]uint64 // gave up on "ERR brownout" (BE degraded on purpose)
		unavailable [preemptible.NumClasses]uint64 // gave up on "ERR unavailable" (circuit breaker open)
		retries     [preemptible.NumClasses]uint64 // backed-off re-sends
		expired     [preemptible.NumClasses]uint64 // end-to-end deadline passed (client- or server-side)
		cancelled   [preemptible.NumClasses]uint64 // "ERR cancelled" responses
		failed      [preemptible.NumClasses]uint64 // "ERR internal" (contained panic)
	)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				class := preemptible.ClassLC
				var req string
				if i%(mixLC+mixBE) >= mixLC {
					class = preemptible.ClassBE
					req = "COMPRESS 16"
				} else if i%2 == 1 {
					req = fmt.Sprintf("GET k%d-%d", c, i%100)
				} else {
					req = fmt.Sprintf("SET k%d-%d v%d", c, i%100, i)
				}
				res, err := tc.Do(req)
				if err != nil {
					// ErrClosed: the bench was interrupted.
					return
				}
				mu.Lock()
				retries[class] += uint64(res.Retries)
				switch res.Outcome {
				case tailclient.OK:
					switch res.Resp {
					case "ERR cancelled":
						cancelled[class]++
					case "ERR internal":
						// The request ran and its handler panicked; the
						// fault was contained server-side. Retrying would
						// hit the same fault — terminal for the op.
						failed[class]++
					default:
						lats[class] = append(lats[class], res.Latency)
					}
				case tailclient.Expired:
					expired[class]++
				case tailclient.Rejected:
					switch res.Resp {
					case "ERR brownout":
						browned[class]++
					case "ERR unavailable":
						unavailable[class]++
					default:
						overloaded[class]++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stopCompress)
	compressWG.Wait()
	elapsed := time.Since(start)

	total := len(lats[preemptible.ClassLC]) + len(lats[preemptible.ClassBE])
	if total == 0 {
		fatal(fmt.Errorf("no successful operations"))
	}
	fmt.Printf("%d ops over %d clients in %v (%.0f ops/s, mix %d:%d)\n",
		total, clients, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), mixLC, mixBE)
	for cl := 0; cl < preemptible.NumClasses; cl++ {
		ls := lats[cl]
		rejected := overloaded[cl] + browned[cl] + unavailable[cl]
		settled := uint64(len(ls)) + rejected + expired[cl] + cancelled[cl] + failed[cl]
		if settled == 0 {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		line := fmt.Sprintf("%v: %d ops", preemptible.Class(cl), len(ls))
		if len(ls) > 0 {
			q := func(p float64) time.Duration { return ls[int(p*float64(len(ls)-1))] }
			line += fmt.Sprintf("  p50 %v  p90 %v  p99 %v  max %v",
				q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
				q(0.99).Round(time.Microsecond), ls[len(ls)-1].Round(time.Microsecond))
		}
		fmt.Println(line)
		fmt.Printf("%v rejects: %d overloaded + %d brownout + %d unavailable (%.2f%% of %d ops), %d retries, %d expired, %d cancelled\n",
			preemptible.Class(cl), overloaded[cl], browned[cl], unavailable[cl],
			100*float64(rejected)/float64(settled), settled,
			retries[cl], expired[cl], cancelled[cl])
		fmt.Printf("%v failures: %d internal (%.2f%% failure rate)\n",
			preemptible.Class(cl), failed[cl], 100*float64(failed[cl])/float64(settled))
	}
	st := tc.Stats()
	amp := 0.0
	if st.Primaries > 0 {
		amp = float64(st.Attempts) / float64(st.Primaries)
	}
	fmt.Printf("tail: %d attempts / %d primaries (%.3f× amplification), %d hedges (%d won), %d retries, %d budget-denied, %d expired, hedge delay %v\n",
		st.Attempts, st.Primaries, amp, st.Hedges, st.HedgeWins,
		st.Retries, st.BudgetDenied, st.Expired, tc.HedgeDelay().Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "preemkv:", err)
	os.Exit(1)
}
