// Command benchmark is the repository's benchmark: four closed-loop
// workloads against an in-process liveserver on a loopback TCP listener,
// driven through tailclient, every reply validated. See README.md.
//
//	bash benchmark/run.sh --workload kv_read --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload in its own process, so workloads never
// share heap, GC state, ports or WAL directories; "-workload all" re-execs
// the binary once per workload. --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones; the last line of standard output is the
// result as one JSON object, and the exit code is non-zero when any reply
// was wrong.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/liveserver"
	"repro/internal/tailclient"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	traceOut string
	workdir  string
	conns    int
	// setUps is how many times an untraced run sets up (tearing down all
	// but the last) so that setup_s is a median, not one draw.
	setUps int
	// ladder is how many ops each ladder level replays.
	ladder int
	// addr, when set, is a server someone else runs (the validator's test
	// points it at a lying one); server-side checks are then skipped.
	addr string
}

func main() {
	var cfg config
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: kv_read, kv_durable, colocate, mget_fanout, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.out, "out", "", "append the result, with machine header, to this JSON-lines file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: write every span to this JSON-lines file")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for WAL files")
	flag.BoolVar(&compare, "compare", false, "compare two -out files (the two arguments) under BENCHMARK.json's bounds")
	flag.Parse()
	cfg.conns = max(2, runtime.NumCPU())
	cfg.setUps = 3
	cfg.ladder = ladderOps

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 || cfg.trace < 0 || cfg.trace > 1 || flag.NArg() != 0 {
		fatal(errors.New("want -seconds > 0, -trace 0 or 1, and no other arguments"))
	}
	if cfg.workload == "all" {
		os.Exit(runEach(cfg))
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	rec, err := run(w, cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.out != "" {
		if err := appendLine(cfg.out, mustJSON(rec)); err != nil {
			fatal(err)
		}
	}
	fmt.Println(mustJSON(rec.result))
	os.Exit(exitCode(rec))
}

// exitCode is 1 for a run that completed but is not correct: a reply was
// wrong, an acknowledged write was lost, or a metric is missing. Operations
// that were refused or lost are counted in failed, not here.
func exitCode(rec record) int {
	if rec.Correct {
		return 0
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func appendLine(path, line string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runEach re-executes this binary once per workload, in order, and returns
// the worst exit code.
func runEach(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	worst := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", fmt.Sprint(cfg.trace), "-workdir", cfg.workdir,
		}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+w.name)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fatal(err)
			}
			worst = max(worst, ee.ExitCode())
		}
	}
	return worst
}

// run executes one workload and returns its record. An error means the
// benchmark could not run; a run that ran but saw wrong replies returns a
// record with Correct false.
func run(w workload, cfg config) (record, error) {
	workdir, err := scratchDir(cfg.workdir)
	if err != nil {
		return record{}, err
	}
	rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Machine: readMachine()}
	fmt.Printf("workload %s  seed %d  window %.0f s  conns %d (closed loop)  trace %d\n", w.name, cfg.seed, cfg.seconds, cfg.conns, cfg.trace)
	fmt.Printf("machine  %s\n", mustJSON(rec.Machine))
	fmt.Printf("why      %s\n", w.why)

	var ms *metricSet
	var problems []string
	if cfg.trace == 0 {
		ms, problems, err = runEndToEnd(w, cfg, workdir, &rec.result)
	} else {
		ms, problems, err = runTraced(w, cfg, workdir, &rec.result)
	}
	if err != nil {
		return record{}, err
	}
	problems = append(problems, ms.finish()...)
	ms.print(os.Stdout)
	rec.Metrics = ms.vals
	rec.Correct = len(problems) == 0
	fmt.Printf("attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	return rec, nil
}

// tally folds the loaders' lifetime counts into the result. It returns the
// problems that make the run incorrect — a wrong reply, an exhausted stream
// — and, separately, a note on operations that were refused or lost: those
// count as failed but say nothing wrong about the data.
func (in *instance) tally(res *result) (problems, notes []string) {
	for _, l := range in.loaders {
		res.Attempted += l.attempted
		res.Failed += l.failed
		if l.exhausted {
			problems = append(problems, fmt.Sprintf("conn %d ran out of pre-generated ops: raise %s's lcRateCap", l.v.conn, in.w.name))
		}
		if l.wrong > 0 {
			problems = append(problems, fmt.Sprintf("%d wrong replies, first: %s", l.wrong, l.v.firstErr))
		}
		if l.firstRefusal != "" {
			notes = append(notes, fmt.Sprintf("%d operations did not succeed at the first attempt, first: %s", l.failed-l.wrong, l.firstRefusal))
		}
	}
	return problems, notes
}

// settle closes a run's books: the loaders' counts into the result, the
// refusals printed as notes, and on a durable workload the reopen check.
func (in *instance) settle(res *result) (recovery, []string, error) {
	problems, notes := in.tally(res)
	for _, n := range notes {
		fmt.Println("NOTE:", n)
	}
	rcv, durProblems, err := in.verifyDurable(res)
	return rcv, append(problems, durProblems...), err
}

// verifyDurable, on a durable workload, reopens the server on its WAL and
// counts every key that lost an acknowledged write as a failed operation.
func (in *instance) verifyDurable(res *result) (recovery, []string, error) {
	if !in.w.durable || in.srv == nil {
		return recovery{}, nil, nil
	}
	rec, err := in.reopenAndVerify()
	if err != nil {
		return recovery{}, nil, err
	}
	res.Attempted += numKeys
	res.Failed += rec.lost
	if rec.lost > 0 {
		return rec, []string{"lost acknowledged write: " + rec.first}, nil
	}
	return rec, nil, nil
}

// runEndToEnd is the untraced run: set up cfg.setUps times (setup_s is the
// median), one timed closed-loop window on the last instance, and on a
// durable workload the reopen check.
func runEndToEnd(w workload, cfg config, workdir string, res *result) (*metricSet, []string, error) {
	var in *instance
	var setupTimes []float64
	for i := 0; i < cfg.setUps; i++ {
		if in != nil {
			in.close()
			// Return the closed instance's memory now, so that mem_mb is the
			// last instance's and its pages are warm again by the window.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(w, cfg.seed, cfg.conns, cfg.seconds, workdir, cfg.addr); err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer in.close()
	win := in.runWindow(cfg.seconds)
	_, problems, err := in.settle(res)
	if err != nil {
		return nil, nil, err
	}

	ms := newMetricSet(endToEnd)
	ms.set("setup_s", median(setupTimes))
	ms.set("ops_s", win.opsPerSec())
	ms.set("lc_p50_us", win.p50us())
	ms.set("lc_tail_ratio", win.p99us()/win.p50us())
	ms.set("allocs_per_op", win.allocsPerOp())
	ms.set("mem_mb", win.memMiB)
	fmt.Printf("samples  lc %d (smallest sub-window %d), be %d; set-ups %.3f s\n", win.lcOps, win.minSub, win.beOps, setupTimes)
	return ms, problems, nil
}

// runTraced is the traced run: one set-up, a half-length closed-loop window
// bracketed by STATS2 scrapes, the open-loop probe (kv_read only), the
// reopen check, then the layer ladder on fresh instances of every layer.
func runTraced(w workload, cfg config, workdir string, res *result) (*metricSet, []string, error) {
	ms := newMetricSet(perLayer)
	t0 := time.Now()
	tab := newTables(w, cfg.seed)
	n := w.streamLen(cfg.conns, cfg.seconds)
	genStream(tab, cfg.seed, 0, cfg.conns, n)
	ms.set("loadgen.op_gen_ns", float64(time.Since(t0))/float64(n))

	live, err := runLive(w, cfg, workdir, res)
	if err != nil {
		return nil, nil, err
	}
	win, before, after, open, tcs, rcv, problems := live.win, live.before, live.after, live.open, live.tcs, live.rcv, live.problems

	lad, err := runLadder(w, cfg.seed, cfg.conns, cfg.ladder, workdir)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += lad.attempted
	res.Failed += lad.failed
	if lad.firstErr != "" {
		problems = append(problems, "first ladder failure: "+lad.firstErr)
	}
	if cfg.traceOut != "" {
		if err := lad.ld.writeSpans(cfg.traceOut); err != nil {
			return nil, nil, err
		}
	}
	ld := lad.ld

	ms.set("tailclient.do_ns", ld.ns("tailclient.do"))
	ms.set("tailclient.self_ns", ld.ns("tailclient.do")-ld.ns("liveserver.wire_roundtrip"))
	ms.set("tailclient.allocs", ld.allocs("tailclient.do"))
	ms.set("tailclient.attempts_per_op", float64(tcs.Attempts)/float64(tcs.Primaries))
	ms.set("tailclient.conns_evicted", float64(tcs.ConnsEvicted))

	ms.set("liveserver.wire_roundtrip_ns", ld.ns("liveserver.wire_roundtrip"))
	ms.set("liveserver.wire_self_ns", ld.ns("liveserver.wire_roundtrip")-ld.ns("liveserver.handle_line"))
	ms.set("liveserver.parse_ns", ld.ns("liveserver.parse"))
	ms.set("liveserver.parse_allocs", ld.allocs("liveserver.parse"))
	ms.set("liveserver.handle_line_ns", ld.ns("liveserver.handle_line"))
	ms.set("liveserver.handle_line_allocs", ld.allocs("liveserver.handle_line"))
	ms.set("liveserver.self_ns", ld.ns("liveserver.handle_line")-ld.ns("liveserver.parse")-ld.ns("shard.route")-ld.ns("shard.do"))
	ms.set("liveserver.handle_line_par_ns", lad.parNs)
	ms.set("liveserver.par_speedup", lad.parSpeedup)
	ms.set("liveserver.stats2_ns", ld.ns("liveserver.stats2"))

	lcB, lcA := before.Totals["lc"], after.Totals["lc"]
	beB, beA := before.Totals["be"], after.Totals["be"]
	delta := func(f func(c liveserver.ClassSeries) uint64) float64 {
		return float64(f(lcA) + f(beA) - f(lcB) - f(beB))
	}
	ms.set("shard.route_ns", ld.ns("shard.route"))
	ms.set("shard.do_empty_ns", ld.ns("shard.do_empty"))
	ms.set("shard.do_ns", ld.ns("shard.do"))
	ms.set("shard.do_allocs", ld.allocs("shard.do"))
	ms.set("shard.body_ns", ld.ns("shard.body"))
	ms.set("shard.self_ns", ld.ns("shard.do_empty")-ld.ns("preemptible.submit_wait"))
	ms.set("shard.mget_legs_per_op", lad.legsPerOp)
	ms.set("shard.rejected", delta(func(c liveserver.ClassSeries) uint64 {
		return c.RejectedNormal + c.RejectedBrownout + c.RejectedShed + c.Timeouts + c.Evicted
	}))
	ms.set("shard.expired", delta(func(c liveserver.ClassSeries) uint64 { return c.ExpiredQueued + c.ExpiredExecuting }))
	ms.set("shard.failed", delta(func(c liveserver.ClassSeries) uint64 { return c.Failed }))
	ms.set("shard.unavailable", delta(func(c liveserver.ClassSeries) uint64 { return c.Unavailable }))
	ms.set("shard.server_lc_p50_us", float64(lcA.P50Micros))
	ms.set("shard.server_lc_p99_us", float64(lcA.P99Micros))
	ms.set("shard.client_server_gap_us", win.p99us()-float64(lcA.P99Micros))

	preemptions := float64(after.Pool.Preemptions - before.Pool.Preemptions)
	ms.set("preemptible.submit_wait_ns", ld.ns("preemptible.submit_wait"))
	ms.set("preemptible.submit_allocs", ld.allocs("preemptible.submit_wait"))
	ms.set("preemptible.launch_ns", ld.ns("preemptible.launch"))
	ms.set("preemptible.launch_allocs", ld.allocs("preemptible.launch"))
	ms.set("preemptible.yield_resume_ns", lad.yieldNs)
	ms.set("preemptible.tax_ns", ld.ns("shard.do")-ld.ns("shard.body"))
	ms.set("preemptible.preemptions", preemptions)
	ms.set("preemptible.preemptions_per_be_op", ratio(preemptions, float64(beA.Completed-beB.Completed)))

	perOp := float64(max(1, w.mgetKeys)) // an MGET's span covers all its Gets
	ms.set("mica.get_ns", ld.ns("mica.get")/perOp)
	ms.set("mica.set_ns", ld.ns("mica.set"))
	ms.set("mica.get_allocs", ld.allocs("mica.get")/perOp)
	ms.set("mica.hit_rate", lad.hitRate)
	ms.set("mica.index_evictions", lad.evictions)

	appends := float64(after.WAL.WalAppends - before.WAL.WalAppends)
	fsyncs := float64(after.WAL.WalFsyncs - before.WAL.WalFsyncs)
	ms.set("wal.append_ns", ld.ns("wal.append"))
	ms.set("wal.sync_ns", ld.ns("wal.sync"))
	ms.set("wal.device_sync_ns", ld.ns("wal.device_sync"))
	ms.set("wal.append_allocs", ld.allocs("wal.append"))
	ms.set("wal.appends", appends)
	ms.set("wal.fsyncs", fsyncs)
	ms.set("wal.appends_per_fsync", ratio(appends, fsyncs))
	ms.set("wal.snapshots", float64(after.WAL.SnapshotCount-before.WAL.SnapshotCount))
	ms.set("wal.recovery_ms", float64(rcv.millis))
	ms.set("wal.recovered_records", float64(rcv.records))

	ms.set("bejob.compress_kb_ns", ld.ns("bejob.compress_kb"))
	ms.set("bejob.be_kb_s", win.beKiBs())
	ms.set("bejob.core_share", win.beKiBs()*ld.ns("bejob.compress_kb")/1e9)

	ms.set("loadgen.lc_p99_us", win.p99us())
	ms.set("loadgen.goodput_kb_s", win.goodputKiBs())
	ms.set("loadgen.validate_ns", lad.validateNs)
	ms.set("loadgen.clock_ns", ld.clockNs)
	ms.set("trace.overhead_pct", lad.overheadPct)
	ms.set("openloop.rate_ops_s", open.rate)
	ms.set("openloop.p50_us", open.p50us)
	ms.set("openloop.p99_us", open.p99us)
	ms.set("openloop.gen_lag_p99_us", open.lagP99us)

	fmt.Printf("window   %.0f s: ops_s %.1f  lc_p50_us %.2f  lc_p99_us %.2f  (lc samples %d, smallest sub-window %d)\n",
		win.seconds, win.opsPerSec(), win.p50us(), win.p99us(), win.lcOps, win.minSub)
	lad.printBudget(os.Stdout, win.p50us())
	return ms, problems, nil
}

// liveRun is what the traced run takes from the live server before it closes
// it: nothing of the instance may stay alive to disturb the ladder.
type liveRun struct {
	win           window
	before, after liveserver.MetricsV2
	open          openResult
	tcs           tailclient.Stats
	rcv           recovery
	problems      []string
}

func runLive(w workload, cfg config, workdir string, res *result) (liveRun, error) {
	var lr liveRun
	in, err := setUp(w, cfg.seed, cfg.conns, cfg.seconds, workdir, "")
	if err != nil {
		return lr, err
	}
	defer in.close()
	if lr.before, err = in.stats2(); err != nil {
		return lr, err
	}
	lr.win = in.runWindow(cfg.seconds / 2)
	if lr.after, err = in.stats2(); err != nil {
		return lr, err
	}
	if w.name == "kv_read" {
		lr.open = in.runOpenLoop(cfg.seconds/2, openLoopRate)
	}
	lr.tcs = in.tc.Stats()
	lr.rcv, lr.problems, err = in.settle(res)
	return lr, err
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
