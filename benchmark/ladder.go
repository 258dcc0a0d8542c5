package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bejob"
	"repro/internal/liveserver"
	"repro/internal/mica"
	"repro/internal/shard"
	"repro/internal/tailclient"
	"repro/internal/wal"
	"repro/preemptible"
)

// The ladder replays the first ladderOps ops of connection 0's stream,
// single-threaded, once per level of the request path, outermost first:
//
//	tailclient.Do → bare net.Conn round trip → Server.HandleLine →
//	ParseLine / Group.Route / Group.Do (real body, body alone, empty body) →
//	Pool.SubmitWithOptions+wait → Runtime.Launch → mica.Get/Set,
//	wal.Append/Sync, bejob.CompressBlock
//
// Each call is wrapped in a span recorded in memory; a level's ns is the
// trimmed mean span of that level minus the clock's own cost, and a layer's
// self time is its level minus the level inside it. Every level sees the same
// ops in the same order, so span i of a level is caused by span i of the
// level outside it: that is the parent link.
const (
	ladderOps = 20000
	// levelBudget stops a level early when its ops are slow (fsync-bound
	// levels on kv_durable): the median of several thousand spans is as
	// good, and the traced run must fit the same time as an untraced one.
	levelBudget = 1500 * time.Millisecond
)

type span struct {
	level      int32
	op         int32
	start, end int64 // ns since the ladder began
	parent     int32 // index into ladder.spans, -1 for the outermost level
}

type levelInfo struct {
	name          string
	first, n      int // this level's spans are ladder.spans[first : first+n]
	allocs        float64
	wallNsPerCall float64
}

type ladder struct {
	// collectInside lets the collector run during a level: for the one
	// level whose garbage (a megabyte a call) cannot wait for the end.
	collectInside bool

	began   time.Time
	clockNs float64
	spans   []span
	levels  []levelInfo
}

func (ld *ladder) level(name string) *levelInfo {
	for i := range ld.levels {
		if ld.levels[i].name == name {
			return &ld.levels[i]
		}
	}
	return nil
}

// measure runs call(i) for i in [0, n) (or until levelBudget is spent),
// recording one span per call. parent names the level whose span i encloses
// this level's span i ("" for none).
func (ld *ladder) measure(name, parent string, n int, call func(i int)) {
	li := levelInfo{name: name, first: len(ld.spans)}
	par := ld.level(parent)
	idx := int32(len(ld.levels))
	// The collector runs between levels, not inside them: on one processor
	// a cycle takes a quarter of it for as long as it lasts, and which
	// level a cycle lands in would decide that level's number.
	runtime.GC()
	if !ld.collectInside {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		call(i)
		e := time.Now()
		p := int32(-1)
		if par != nil && i < par.n {
			p = int32(par.first + i)
		}
		ld.spans = append(ld.spans, span{level: idx, op: int32(i), start: int64(s.Sub(ld.began)), end: int64(e.Sub(ld.began)), parent: p})
		li.n++
		if e.Sub(t0) > levelBudget {
			break
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	li.allocs = float64(after.Mallocs-before.Mallocs) / float64(li.n)
	li.wallNsPerCall = float64(wall) / float64(li.n)
	ld.levels = append(ld.levels, li)
}

// ns is the level's mean span after dropping the slowest 1 % (host stalls,
// collector pauses), less the cost of reading the clock twice; 0 for a level
// that did not run on this workload. A mean and not a median, because the
// budget subtracts levels from each other: means of the same ops subtract
// exactly, medians of a two-humped mix (kv_durable's GETs and SETs) do not.
func (ld *ladder) ns(name string) float64 {
	li := ld.level(name)
	if li == nil || li.n == 0 {
		return 0
	}
	d := make([]int64, li.n)
	for i, s := range ld.spans[li.first : li.first+li.n] {
		d[i] = s.end - s.start
	}
	slices.Sort(d)
	d = d[:len(d)-len(d)/100]
	var sum int64
	for _, v := range d {
		sum += v
	}
	return float64(sum)/float64(len(d)) - ld.clockNs
}

func (ld *ladder) allocs(name string) float64 {
	if li := ld.level(name); li != nil {
		return li.allocs
	}
	return 0
}

// writeSpans writes every span as one JSON line: name, op, start_ns,
// end_ns, and parent as the line number (from 0) of the enclosing span.
func (ld *ladder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ld.spans {
		err := enc.Encode(struct {
			Name   string `json:"name"`
			Op     int32  `json:"op"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
		}{ld.levels[s.level].name, s.op, s.start, s.end, s.parent})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladderOp is one stream op with everything each level needs prepared, so
// no level's span pays for preparing its input.
type ladderOp struct {
	o     op
	line  string // as tailclient.Do takes it
	lineD string // as the wire carries it: with the D token tailclient adds
	key   []byte
	val   []byte // SET only
}

func prepareOps(t *tables, s *stream, n int) []ladderOp {
	if n > len(s.ops) {
		n = len(s.ops)
	}
	d := fmt.Sprintf(" D%d", time.Now().Add(time.Hour).UnixMicro())
	out := make([]ladderOp, n)
	for i := range out {
		o := s.ops[i]
		lo := ladderOp{o: o, line: s.line(t, o)}
		lo.lineD = lo.line + d
		switch o.kind {
		case opGet:
			lo.key = []byte(t.keys[o.rank])
		case opSet:
			lo.key = []byte(t.keys[o.rank])
			lo.val = []byte(strings.SplitN(lo.line, " ", 3)[2])
		}
		out[i] = lo
	}
	return out
}

// ladderResult is what the ladder adds to the traced run's metrics.
type ladderResult struct {
	ld          *ladder
	validateNs  float64
	overheadPct float64
	parNs       float64
	parSpeedup  float64
	legsPerOp   float64
	hitRate     float64
	evictions   float64
	yieldNs     float64
	failed      int
	attempted   int
	firstErr    string
}

// rig is what the ladder's three groups of levels share.
type rig struct {
	w     workload
	tab   *tables
	conns int
	dir   string // scratch for the ladder's own WAL directories

	raw     *stream      // connection 0's stream, for the validator's messages
	ops     []ladderOp   // connection 0's ops: what every span level replays
	streams [][]ladderOp // every LC connection's ops, for the parallel probe

	ld  *ladder
	res *ladderResult
}

// runLadder builds its own fresh instance of every layer — a served
// liveserver, a shard group, a pool, a store, a log, an engine — preloads
// what holds keys, and measures each level over the same ops.
func runLadder(w workload, seed uint64, conns, nOps int, workdir string) (*ladderResult, error) {
	r := &rig{w: w, tab: newTables(w, seed), conns: conns}
	for c := 0; c < w.lcConns(conns); c++ {
		raw := genStream(r.tab, seed, c, conns, nOps)
		if c == 0 {
			r.raw = raw
		}
		r.streams = append(r.streams, prepareOps(r.tab, raw, nOps))
	}
	r.ops = r.streams[0]
	var err error
	if r.dir, err = os.MkdirTemp(workdir, "ladder-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	r.ld = &ladder{
		began:   time.Now(),
		clockNs: clockCost(),
		spans:   make([]span, 0, 16*nOps),
		levels:  make([]levelInfo, 0, 32),
	}
	r.res = &ladderResult{ld: r.ld}
	// One processor for every span level: the client, the connection
	// goroutines, the pool workers and the task goroutines of one request
	// then run one after another, so a span is the processor time of the
	// request's whole path and not a lottery of how long an idle thread of
	// this VM takes to wake (tens of microseconds, more than most layers).
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	for _, levels := range []func() error{
		func() error { return r.serverLevels(seed, procs) },
		r.groupLevels,
		r.leafLevels,
	} {
		if err := levels(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// serverLevels measures the levels that cross the wire or enter through
// HandleLine, on one served server preloaded in process, and — with every
// processor back for a moment — the parallel HandleLine probe and bejob.
func (r *rig) serverLevels(seed uint64, procs int) error {
	w, tab, ld, res, conns := r.w, r.tab, r.ld, r.res, r.conns
	rt, srv, addr, err := startServer(w, filepath.Join(r.dir, "srv"))
	if err != nil {
		return err
	}
	defer rt.Close()
	defer srv.Close()
	for k := 0; k < numKeys; k++ {
		if resp := srv.HandleLine(tab.setLine(k, 0)); resp != "OK" {
			return fmt.Errorf("ladder preload: %q", resp)
		}
	}
	settleHeap()
	tc := newClient(addr, 1, seed)
	defer tc.Close()
	v := newValidator(tab, 0, conns, false)
	ops := r.ops
	replies := make([]string, len(ops))
	doAll := func(i int) {
		r, err := tc.Do(ops[i].line)
		if err != nil || r.Outcome != tailclient.OK {
			r.Resp = fmt.Sprintf("outcome %v err %v", r.Outcome, err)
		}
		replies[i] = r.Resp
	}
	// The same loop without spans, for the tracing overhead, after a short
	// pass that dials the connection and warms both ends.
	for i := 0; i < len(ops)/20; i++ {
		doAll(i)
	}
	t0 := time.Now()
	for i := range ops {
		doAll(i)
		if time.Since(t0) > levelBudget {
			ops = ops[:i+1]
			r.ops = ops // every later level replays what this one had time for
			break
		}
	}
	bareOpsPerSec := float64(len(ops)) / time.Since(t0).Seconds()
	ld.measure("tailclient.do", "", len(ops), doAll)
	tcLevel := *ld.level("tailclient.do")
	res.overheadPct = (bareOpsPerSec - 1e9/tcLevel.wallNsPerCall) / bareOpsPerSec * 100
	ld.measure("loadgen.validate", "", tcLevel.n, func(i int) {
		res.attempted++
		if _, ok := v.check(r.raw, ops[i].o, replies[i]); !ok {
			res.failed++
		}
	})
	res.firstErr = v.firstErr
	res.validateNs = ld.ns("loadgen.validate")

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64*1024)
	var wireErr error
	ld.measure("liveserver.wire_roundtrip", "tailclient.do", len(ops), func(i int) {
		if _, err := io.WriteString(nc, ops[i].lineD+"\n"); err != nil {
			wireErr = err
			return
		}
		if _, err := br.ReadString('\n'); err != nil {
			wireErr = err
		}
	})
	if wireErr != nil {
		return fmt.Errorf("ladder wire level: %w", wireErr)
	}
	ld.measure("liveserver.handle_line", "liveserver.wire_roundtrip", len(ops), func(i int) { srv.HandleLine(ops[i].lineD) })
	ld.measure("liveserver.parse", "liveserver.handle_line", len(ops), func(i int) { liveserver.ParseLine(ops[i].lineD) })
	ld.measure("liveserver.stats2", "", 500, func(int) { srv.HandleLine("STATS2") })

	// HandleLine from one goroutine, then from `conns` at once, both with
	// every processor available: how much of a second core the request
	// path can use before its locks serialize it.
	handleAll := func(streams ...[]ladderOp) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, mine := range streams {
			wg.Add(1)
			go func(mine []ladderOp) {
				defer wg.Done()
				for i := range mine[:len(ops)] {
					srv.HandleLine(mine[i].lineD)
				}
			}(mine)
		}
		wg.Wait()
		return float64(time.Since(t0)) / float64(len(streams)*len(ops))
	}
	runtime.GOMAXPROCS(procs)
	serialNs := handleAll(ops)
	par := make([][]ladderOp, conns)
	for g := range par {
		par[g] = r.streams[g%len(r.streams)]
	}
	res.parNs = handleAll(par...)
	res.parSpeedup = serialNs / res.parNs
	// One 1 KiB block through a new DEFLATE writer, as the engine does it.
	// No hand-offs to serialize, and its megabyte of garbage per call wants
	// the collector on the other processor, so it is measured here.
	eng := bejob.NewEngine(0)
	block := bejob.MakeBlock(1024, 64)
	var beErr error
	ld.collectInside = true
	ld.measure("bejob.compress_kb", "", 2000, func(int) {
		if _, err := eng.CompressBlock(block); err != nil {
			beErr = err
		}
	})
	ld.collectInside = false
	if beErr != nil {
		return fmt.Errorf("ladder bejob level: %w", beErr)
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// groupLevels measures what lies below HandleLine by calling the layers
// itself: a shard group shaped like the server's, the bodies the handlers
// run, an empty body, then a bare pool and the runtime under it.
func (r *rig) groupLevels() error {
	w, tab, ld, res, ops := r.w, r.tab, r.ld, r.res, r.ops
	rt2, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return err
	}
	defer rt2.Close()
	scfg := shard.Config{Workers: w.workers, Quantum: w.quantum, StoreLogBytes: w.storeLogBytes(), BrownoutDisabled: true}
	if w.durable {
		scfg.WALDir, scfg.SnapshotEvery, scfg.WALFS = filepath.Join(r.dir, "grp"), snapshotEvery, pageCacheFS{}
	}
	grp := shard.NewGroup(rt2, w.shards, scfg, shard.SuperviseConfig{Disabled: true})
	defer grp.Close()
	for k := 0; k < numKeys; k++ {
		key := []byte(tab.keys[k])
		if ok, err := grp.Shard(grp.Route(key)).DurableSet(key, []byte(tab.valueFor(k, 0))); !ok || err != nil {
			return fmt.Errorf("ladder group preload: ok %v err %v", ok, err)
		}
	}
	deadline := time.Now().Add(time.Hour)
	opts := shard.DoOptions{Deadline: deadline}
	var sink string
	body := func(lo *ladderOp) (int, preemptible.Task) {
		idx := grp.Route(lo.key)
		sh := grp.Shard(idx)
		if lo.o.kind == opSet {
			return idx, func(*preemptible.Ctx) {
				if ok, err := sh.DurableSet(lo.key, lo.val); ok && err == nil {
					sink = "OK"
				}
			}
		}
		return idx, func(*preemptible.Ctx) {
			if g := sh.StoreGet(lo.key); g.Hit {
				sink = "VALUE " + string(g.Value)
			}
		}
	}
	// mgetLegs groups an MGET's keys by shard, as the handler does.
	mgetLegs := func(e *mgetEntry) map[int][]int32 {
		legs := make(map[int][]int32)
		for _, k := range e.ranks {
			idx := grp.Route([]byte(tab.keys[k]))
			legs[idx] = append(legs[idx], k)
		}
		return legs
	}
	legBody := func(idx int, ranks []int32, tokens []string) preemptible.Task {
		return func(*preemptible.Ctx) {
			grp.Shard(idx).StoreView(func(st *mica.Store) {
				for i, k := range ranks {
					if g := st.Get([]byte(tab.keys[k])); g.Hit {
						tokens[i] = "=" + url.QueryEscape(string(g.Value))
					}
				}
			})
		}
	}
	var legs int
	ld.measure("shard.route", "liveserver.handle_line", len(ops), func(i int) {
		if lo := &ops[i]; lo.o.kind == opMGet {
			legs += len(mgetLegs(&tab.mget[lo.o.rank]))
		} else {
			grp.Route(lo.key)
			legs++
		}
	})
	res.legsPerOp = float64(legs) / float64(ld.level("shard.route").n)
	runBody := func(through bool) func(i int) {
		return func(i int) {
			lo := &ops[i]
			if lo.o.kind != opMGet {
				idx, task := body(lo)
				if through {
					grp.Do(idx, preemptible.ClassLC, task, opts)
				} else {
					task(nil)
				}
				return
			}
			e := &tab.mget[lo.o.rank]
			tokens := make([]string, len(e.ranks))
			var wg sync.WaitGroup
			at := 0
			for idx, ranks := range mgetLegs(e) {
				task := legBody(idx, ranks, tokens[at:at+len(ranks)])
				at += len(ranks)
				if !through {
					task(nil)
					continue
				}
				wg.Add(1)
				go func(idx int) {
					defer wg.Done()
					grp.Do(idx, preemptible.ClassLC, task, opts)
				}(idx)
			}
			wg.Wait()
			sink = "MVALUES " + strings.Join(tokens, " ")
		}
	}
	ld.measure("shard.do", "liveserver.handle_line", len(ops), runBody(true))
	ld.measure("shard.body", "shard.do", len(ops), runBody(false))
	empty := func(*preemptible.Ctx) {}
	ld.measure("shard.do_empty", "shard.do", len(ops), func(i int) {
		grp.Do(0, preemptible.ClassLC, empty, opts)
	})

	pool := preemptible.NewPool(rt2, preemptible.PoolConfig{Workers: w.workers, Quantum: w.quantum})
	defer pool.Close()
	done := make(chan time.Duration, 1)
	var poolErr error
	ld.measure("preemptible.submit_wait", "shard.do_empty", len(ops), func(int) {
		_, err := pool.SubmitWithOptions(empty, preemptible.SubmitOptions{Deadline: deadline, Expire: true}, func(d time.Duration) { done <- d })
		if err != nil {
			poolErr = err
			return
		}
		<-done
	})
	ld.measure("preemptible.launch", "preemptible.submit_wait", len(ops), func(int) {
		if _, err := rt2.Launch(empty, w.quantum); err != nil {
			poolErr = err
		}
	})
	const yields = 100
	ld.measure("preemptible.yield_x100", "", 300, func(int) {
		fn, err := rt2.Launch(func(ctx *preemptible.Ctx) {
			for i := 0; i < yields; i++ {
				ctx.Yield()
			}
		}, w.quantum)
		if err != nil {
			poolErr = err
			return
		}
		for !fn.Completed() {
			fn.Resume(w.quantum)
		}
	})
	if poolErr != nil {
		return fmt.Errorf("ladder preemptible levels: %w", poolErr)
	}
	res.yieldNs = (ld.ns("preemptible.yield_x100") - ld.ns("preemptible.launch")) / yields
	_ = sink
	return nil
}

// leafLevels measures the innermost layers alone: the store, and on a
// durable workload the log, each over the ops of the stream that reach it.
func (r *rig) leafLevels() error {
	w, tab, ld, res, ops := r.w, r.tab, r.ld, r.res, r.ops
	store := mica.NewStore(w.storeLogBytes(), w.storeLogBytes()/256)
	for k := 0; k < numKeys; k++ {
		store.Set([]byte(tab.keys[k]), []byte(tab.valueFor(k, 0)))
	}
	var gets, sets []int
	for i := range ops {
		if ops[i].o.kind == opSet {
			sets = append(sets, i)
		} else {
			gets = append(gets, i)
		}
	}
	ld.measure("mica.get", "", len(gets), func(i int) {
		if lo := &ops[gets[i]]; lo.o.kind == opGet {
			store.Get(lo.key)
		} else {
			for _, k := range tab.mget[lo.o.rank].ranks {
				store.Get([]byte(tab.keys[k]))
			}
		}
	})
	ld.measure("mica.set", "", len(sets), func(i int) { store.Set(ops[sets[i]].key, ops[sets[i]].val) })
	res.hitRate, res.evictions = store.HitRate(), float64(store.IndexEvictions)

	if w.durable {
		// The log as the workload runs it, then the same calls on the real
		// device: what this sandbox's disk would add to every SET.
		var walErr error
		appendSync := func(log *wal.Log) func(i int) {
			return func(i int) {
				lsn, err := log.Append(ops[sets[i]].key, ops[sets[i]].val)
				if err == nil {
					err = log.Sync(lsn)
				}
				if err != nil {
					walErr = err
				}
			}
		}
		log, err := wal.Open(wal.Config{Dir: filepath.Join(r.dir, "wal"), FS: pageCacheFS{}}, func(k, v []byte) {})
		if err != nil {
			return err
		}
		ld.measure("wal.append", "", len(sets), func(i int) {
			if _, err := log.Append(ops[sets[i]].key, ops[sets[i]].val); err != nil {
				walErr = err
			}
		})
		ld.measure("wal.sync", "", len(sets), appendSync(log))
		dev, err := wal.Open(wal.Config{Dir: filepath.Join(r.dir, "wal-device")}, func(k, v []byte) {})
		if err != nil {
			return err
		}
		ld.measure("wal.device_sync", "", len(sets), appendSync(dev))
		for _, l := range []*wal.Log{log, dev} {
			if err := l.Close(); err != nil && walErr == nil {
				walErr = err
			}
		}
		if walErr != nil {
			return fmt.Errorf("ladder wal levels: %w", walErr)
		}
	}
	return nil
}

// clockCost is the median cost of one span's two clock reads.
func clockCost() float64 {
	d := make([]float64, 10001)
	for i := range d {
		s := time.Now()
		e := time.Now()
		d[i] = float64(e.Sub(s))
	}
	return median(d)
}

// budgetRow is one line of the layer budget: a layer's self time.
type budgetRow struct {
	layer  string
	selfNs float64
}

// budget is the outside-in decomposition of one unloaded request: every row
// is a level minus the level inside it, so the rows sum to tailclient.do_ns
// by construction, and what is left of lc_p50_us is what two connections
// running at once add (queueing and contention) — the residual.
func (r *ladderResult) budget() []budgetRow {
	ld := r.ld
	return []budgetRow{
		{"tailclient (Do - wire round trip)", ld.ns("tailclient.do") - ld.ns("liveserver.wire_roundtrip")},
		{"liveserver wire (round trip - HandleLine)", ld.ns("liveserver.wire_roundtrip") - ld.ns("liveserver.handle_line")},
		{"liveserver handler (HandleLine - parse - route - shard.Do)", ld.ns("liveserver.handle_line") - ld.ns("liveserver.parse") - ld.ns("shard.route") - ld.ns("shard.do")},
		{"liveserver parse", ld.ns("liveserver.parse")},
		{"shard route", ld.ns("shard.route")},
		{"shard gates (Do empty - pool submit+wait)", ld.ns("shard.do_empty") - ld.ns("preemptible.submit_wait")},
		{"preemptible pool (submit+wait, includes Launch)", ld.ns("preemptible.submit_wait")},
		{"task body in the pool (Do - Do empty: mica, wal)", ld.ns("shard.do") - ld.ns("shard.do_empty")},
	}
}

func (r *ladderResult) printBudget(w io.Writer, p50us float64) {
	fmt.Fprintf(w, "layer budget (self ns per unloaded request; share of this run's lc_p50_us = %.1f us)\n", p50us)
	var sum float64
	for _, row := range r.budget() {
		sum += row.selfNs
		fmt.Fprintf(w, "  %-60s %10.0f ns  %5.1f %%\n", row.layer, row.selfNs, row.selfNs/(p50us*1e3)*100)
	}
	fmt.Fprintf(w, "  %-60s %10.0f ns  %5.1f %%\n", "sum of self times (= tailclient.do_ns)", sum, sum/(p50us*1e3)*100)
	fmt.Fprintf(w, "  %-60s %10.0f ns  %5.1f %%\n", "residual (lc_p50_us - sum: load, queueing, contention)", p50us*1e3-sum, (p50us*1e3-sum)/(p50us*1e3)*100)
}
