// Command preemkv runs the live preemptible key-value + compression
// server (internal/liveserver): a miniature, runnable version of the
// paper's §V-C colocation deployment.
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
// Load comes from elsewhere: the repository benchmark (`bash
// benchmark/run.sh`) measures an in-process server, the chaos soak
// (`preembench -soak`) checks one under faults, and a program that
// wants retries, hedging and deadlines against a running preemkv uses
// internal/tailclient.
//
// On SIGINT/SIGTERM the server drains gracefully: admission stops,
// in-flight requests finish until the -drain deadline, then stragglers
// are cancelled at their next safepoint. With -metrics, a
// tiny HTTP endpoint exports the same per-shard + group-total series
// as the STATS2 wire command (the v2 metrics plane):
//
//	preemkv -serve :7070 -metrics :9090
//	curl http://127.0.0.1:9090/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/liveserver"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/preemptible"
)

func main() {
	var (
		serveAddr = flag.String("serve", "", "address to serve on (e.g. :7070)")
		workers   = flag.Int("workers", 2, "pool workers")
		quantum   = flag.Duration("quantum", 500*time.Microsecond, "pool quantum")
		maxConns  = flag.Int("maxconns", 0, "connection cap, shed beyond (0 = default 1024, -1 = unlimited)")
		maxInfl   = flag.Int("maxinflight", 0, "in-flight request cap (0 = default 64×workers, -1 = unlimited)")
		reqTO     = flag.Duration("reqtimeout", 0, "queue-wait timeout before a request is shed (0 = none)")
		maxLine   = flag.Int("maxline", 0, "request line byte cap (0 = default 1 MiB)")
		idleTO    = flag.Duration("idletimeout", 0, "reap connections idle this long with nothing in flight (0 = never)")
		writeTO   = flag.Duration("writetimeout", 0, "per-response write deadline against non-draining clients (0 = none)")
		drain     = flag.Duration("drain", 5*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
		noBreaker = flag.Bool("nobreaker", false, "disable per-class circuit breakers")
		shards    = flag.Int("shards", 1, "bulkhead shard count: independent pool+store partitions behind a rendezvous router")
		supervise = flag.Bool("supervise", false, "heartbeat shards and restart wedged ones in place")
		hbEvery   = flag.Duration("hbinterval", 50*time.Millisecond, "supervisor heartbeat interval (with -supervise)")
		maxRestrt = flag.Int("maxrestarts", 0, "restart budget per shard within -restartwindow before it is retired as dead (0 = unlimited)")
		restrtWin = flag.Duration("restartwindow", 10*time.Second, "sliding window for the restart budget")
		restrtDrn = flag.Duration("restartdrain", 500*time.Millisecond, "drain deadline when restarting a failed shard")
		metrics   = flag.String("metrics", "", "HTTP address exporting the STATS2 series at /metrics (empty = disabled)")
		walDir    = flag.String("wal", "", "directory for per-shard write-ahead logs: SETs are acknowledged only after fsync and survive crashes/restarts (empty = no durability)")
		walSync   = flag.String("walsync", "group", "WAL durability mode: group (amortized fsync), always (fsync per SET), off (ack before sync; crash may lose acked writes)")
		snapEvery = flag.Int("snapshotevery", 4096, "snapshot a shard's partition after this many logged SETs and truncate its WAL (0 = never)")
	)
	flag.Parse()

	if *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "preemkv: need -serve <addr>")
		flag.Usage()
		os.Exit(2)
	}
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
	fmt.Printf("overload: %d conns shed, %d requests shed, %d brownout-rejected, %d timeouts, %d over-long lines\n",
		m.ShedConns, lc.RejectedNormal+lc.RejectedShed+be.RejectedNormal+be.RejectedShed,
		lc.RejectedBrownout+be.RejectedBrownout, lc.Timeouts+be.Timeouts, m.LineTooLong)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "preemkv:", err)
	os.Exit(1)
}
