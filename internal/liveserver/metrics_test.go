package liveserver

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenDoc is a fixed, fully-populated STATS v2 document: every field
// nonzero so the golden file pins the complete wire layout, not just
// the happy subset a live snapshot happens to fill.
func goldenDoc() MetricsV2 {
	lc := ClassSeries{
		Requests: 120, Completed: 100, RejectedNormal: 3, RejectedBrownout: 0,
		RejectedShed: 2, Timeouts: 1, Evicted: 0, Failed: 4, Unavailable: 5,
		ExpiredQueued: 2, ExpiredExecuting: 1, Cancelled: 2, Reattempts: 7,
		LatencyCount: 100, P50Micros: 180, P99Micros: 2300, P999Micros: 5100, MaxMicros: 6000,
	}
	be := ClassSeries{
		Requests: 40, Completed: 30, RejectedNormal: 1, RejectedBrownout: 6,
		RejectedShed: 1, Timeouts: 0, Evicted: 2, Failed: 0, Unavailable: 0,
		ExpiredQueued: 0, ExpiredExecuting: 0, Cancelled: 0, Reattempts: 1,
		LatencyCount: 30, P50Micros: 900, P99Micros: 9100, P999Micros: 12000, MaxMicros: 15000,
	}
	halve := func(s ClassSeries) ClassSeries {
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Uint64:
				f.SetUint(f.Uint() / 2)
			case reflect.Int64:
				f.SetInt(f.Int() / 2)
			}
		}
		return s
	}
	pool := PoolSeries{Submitted: 160, Completed: 130, Preemptions: 44, Shed: 9, Failed: 4, DegradedRuns: 2}
	halfPool := PoolSeries{Submitted: 80, Completed: 65, Preemptions: 22, Shed: 4, Failed: 2, DegradedRuns: 1}
	walTot := WALSeries{WalAppends: 240, WalFsyncs: 60, WalRecoveredRecords: 90, SnapshotCount: 6, RecoveryMillis: 14}
	halfWAL := WALSeries{WalAppends: 120, WalFsyncs: 30, WalRecoveredRecords: 45, SnapshotCount: 3, RecoveryMillis: 7}
	return MetricsV2{
		Schema:        MetricsSchemaVersion,
		State:         "brownout",
		Load:          0.875,
		Shards:        2,
		ShedConns:     3,
		LineTooLong:   1,
		IdleClosed:    2,
		WriteTimeouts: 1,
		Totals:        map[string]ClassSeries{"lc": lc, "be": be},
		Pool:          pool,
		WAL:           walTot,
		PerShard: []ShardSeries{
			{Shard: 0, Health: "healthy", Generation: 1, Restarts: 1, Brownout: "brownout",
				Classes:  map[string]ClassSeries{"lc": halve(lc), "be": halve(be)},
				Breakers: map[string]BreakerSeries{"lc": {State: "closed", Trips: 1}, "be": {State: "half-open", Trips: 3}},
				Pool:     halfPool, WAL: halfWAL},
			{Shard: 1, Health: "dead", Generation: 2, Restarts: 2, Brownout: "normal",
				Classes:  map[string]ClassSeries{"lc": halve(lc), "be": halve(be)},
				Breakers: map[string]BreakerSeries{"lc": {State: "open", Trips: 2}, "be": {State: "closed", Trips: 1}},
				Pool:     halfPool, WAL: halfWAL},
		},
	}
}

// TestStatsV2GoldenRoundTrip pins the wire encoding byte for byte and
// proves encode→decode is lossless. A layout change shows up as a
// golden diff (rerun with -update deliberately); a schema change must
// bump MetricsSchemaVersion.
func TestStatsV2GoldenRoundTrip(t *testing.T) {
	doc := goldenDoc()
	line := EncodeMetricsV2(doc)
	if strings.ContainsAny(line, "\n\r") {
		t.Fatalf("wire encoding spans lines: %q", line)
	}
	path := filepath.Join("testdata", "statsv2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to regenerate): %v", err)
	}
	if got := line + "\n"; got != string(want) {
		t.Errorf("wire encoding drifted from golden\n got: %s\nwant: %s", got, want)
	}
	back, err := DecodeMetricsV2(strings.TrimSpace(string(want)))
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(back, doc) {
		t.Errorf("golden round-trip not lossless:\n got %+v\nwant %+v", back, doc)
	}
}

func TestStatsV2DecodeRejectsBadInput(t *testing.T) {
	if _, err := DecodeMetricsV2("STATS2 {not json"); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := DecodeMetricsV2(`STATS2 {"schema":1}`); err == nil {
		t.Error("wrong schema version accepted")
	}
	// Bare JSON (the /metrics form, no wire prefix) must decode too.
	if _, err := DecodeMetricsV2(EncodeMetricsV2(goldenDoc())[len("STATS2 "):]); err != nil {
		t.Errorf("bare JSON rejected: %v", err)
	}
}

// sumShardSeries recomputes totals from a document's per-shard blocks,
// the way the invariant defines them.
func sumShardSeries(m MetricsV2) (map[string]ClassSeries, PoolSeries, WALSeries) {
	totals := map[string]ClassSeries{}
	var pool PoolSeries
	var wal WALSeries
	for _, sh := range m.PerShard {
		for name, cs := range sh.Classes {
			agg := totals[name]
			agg.add(cs)
			agg.LatencyCount += cs.LatencyCount
			totals[name] = agg
		}
		pool.add(sh.Pool)
		wal.add(sh.WAL)
	}
	return totals, pool, wal
}

// stripQuantiles zeroes the non-additive latency fields so additive
// counters can be compared with DeepEqual.
func stripQuantiles(cs ClassSeries) ClassSeries {
	cs.P50Micros, cs.P99Micros, cs.P999Micros, cs.MaxMicros = 0, 0, 0, 0
	return cs
}

// TestMetricsTotalsEqualShardSums drives mixed load at a 4-shard server
// and then checks the exact-correspondence invariant on both export
// surfaces: every additive counter in Totals equals the sum of that
// counter over the per-shard blocks, and the HTTP /metrics document
// agrees with the STATS2 wire document counter for counter.
func TestMetricsTotalsEqualShardSums(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 4, Workers: 2})

	// Concurrent mixed load on raw connections (no t.Fatal off the test
	// goroutine); individual op responses don't matter here, only that
	// the counters move across shards.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			do := func(req string) bool {
				if _, err := conn.Write([]byte(req + "\n")); err != nil {
					return false
				}
				return sc.Scan()
			}
			for i := 0; i < 60; i++ {
				key := "k" + string(rune('a'+w)) + string(rune('a'+i%17))
				ok := true
				switch i % 5 {
				case 0, 1:
					ok = do("SET " + key + " v" + key)
				case 2:
					ok = do("GET " + key)
				case 3:
					ok = do("MGET " + key + " missing-" + key + " other-" + key)
				case 4:
					ok = do("COMPRESS 2")
				}
				if !ok {
					return
				}
			}
			// An already-expired deadline so expiry counters move.
			do("GET kx D1")
		}(w)
	}
	wg.Wait()

	// Quiesced: no in-flight requests, so successive snapshots agree.
	wire, err := DecodeMetricsV2(dial(t, addr).roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatalf("wire STATS2: %v", err)
	}
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	httpDoc, err := DecodeMetricsV2(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}

	for name, doc := range map[string]MetricsV2{"wire": wire, "http": httpDoc} {
		if doc.Shards != 4 || len(doc.PerShard) != 4 {
			t.Fatalf("%s: want 4 shards, got %d (%d blocks)", name, doc.Shards, len(doc.PerShard))
		}
		sums, poolSum, walSum := sumShardSeries(doc)
		for class, total := range doc.Totals {
			if got, want := stripQuantiles(total), stripQuantiles(sums[class]); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: totals.%s != Σ shards:\n got %+v\nwant %+v", name, class, got, want)
			}
		}
		if !reflect.DeepEqual(doc.Pool, poolSum) {
			t.Errorf("%s: pool totals != Σ shards:\n got %+v\nwant %+v", name, doc.Pool, poolSum)
		}
		if !reflect.DeepEqual(doc.WAL, walSum) {
			t.Errorf("%s: wal totals != Σ shards:\n got %+v\nwant %+v", name, doc.WAL, walSum)
		}
		if doc.Totals["lc"].Completed == 0 {
			t.Errorf("%s: no completed LC requests recorded under load", name)
		}
		if doc.Totals["lc"].LatencyCount != doc.Totals["lc"].Completed {
			t.Errorf("%s: latency observations %d != completions %d", name,
				doc.Totals["lc"].LatencyCount, doc.Totals["lc"].Completed)
		}
		if doc.Totals["lc"].ExpiredQueued+doc.Totals["lc"].ExpiredExecuting == 0 {
			t.Errorf("%s: expired-deadline requests not visible in totals", name)
		}
	}

	// Cross-surface: same underlying counters, so the quiesced documents
	// must agree (Load is a live EWMA sample and may drift between
	// scrapes; counters must not).
	for class := range wire.Totals {
		if !reflect.DeepEqual(wire.Totals[class], httpDoc.Totals[class]) {
			t.Errorf("wire and /metrics disagree on totals.%s:\nwire %+v\nhttp %+v",
				class, wire.Totals[class], httpDoc.Totals[class])
		}
	}
}

// TestMetricsScrapeConsistentUnderLoad scrapes MetricsV2 in a tight loop
// while connections issue GET/SET, and requires every single document
// to satisfy totals == Σ shards for every counter — latency_count
// included, which needs each shard's histogram to be read once, not
// once for its block and again for the totals — and latency_count ==
// completed per shard and class (both move under one lock).
func TestMetricsScrapeConsistentUnderLoad(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 4, Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := fmt.Sprintf("GET k%d-%d\n", w, i%64)
				if i%2 == 0 {
					req = fmt.Sprintf("SET k%d-%d v\n", w, i%64)
				}
				if _, err := conn.Write([]byte(req)); err != nil || !sc.Scan() {
					t.Errorf("conn %d: request %d got no response (write err %v)", w, i, err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var completed uint64
	deadline := time.Now().Add(3 * time.Second)
	for docs := 0; docs < 300 || completed < 2000; docs++ {
		if time.Now().After(deadline) {
			t.Fatalf("load too slow to exercise the scrape: %d documents, %d completed", docs, completed)
		}
		m := s.MetricsV2()
		sums, _, _ := sumShardSeries(m)
		for class, total := range m.Totals {
			if got, want := stripQuantiles(total), stripQuantiles(sums[class]); got != want {
				t.Fatalf("document %d: totals.%s != Σ shards:\n got %+v\nwant %+v", docs, class, got, want)
			}
		}
		for _, sh := range m.PerShard {
			for class, cs := range sh.Classes {
				if cs.LatencyCount != cs.Completed {
					t.Fatalf("document %d: shard %d %s latency_count %d != completed %d",
						docs, sh.Shard, class, cs.LatencyCount, cs.Completed)
				}
			}
		}
		completed = m.Totals["lc"].Completed
	}
}

// TestMetricsAfterShutdownEqualWhatWasDriven: a drained server reports
// what it served, once. Retiring a generation folds its pool and WAL
// counters into the shard's accumulators while the shard still points at
// that generation, so a reader that adds "retired" and "live" must not
// find the same pool on both sides — after Shutdown (what preemkv's exit
// summary reads) or at any moment of the drain (a scraper sampling
// through it must see neither a doubled nor a missing generation).
func TestMetricsAfterShutdownEqualWhatWasDriven(t *testing.T) {
	const sets = 120
	s, addr := startServer(t, Config{Shards: 2, Workers: 2, WALDir: t.TempDir()})
	c := dial(t, addr)
	for i := 0; i < sets; i++ {
		if resp := c.roundTrip(t, fmt.Sprintf("SET k%d v%d", i, i)); resp != "OK" {
			t.Fatalf("SET %d: %q", i, resp)
		}
	}
	c.conn.Close()

	// Everything driven has completed, so every sample — before, during
	// and after the drain — reads exactly the final value.
	read := func() (pool, appends uint64) {
		for i := 0; i < s.Group().N(); i++ {
			appends += s.Group().Shard(i).WALStats().Appends
		}
		return s.PoolStats().Completed, appends
	}
	stop := make(chan struct{})
	sampled := make(chan string, 1)
	go func() {
		for n := 0; ; n++ {
			if pool, appends := read(); pool != sets || appends != sets {
				sampled <- fmt.Sprintf("sample %d: pool completed %d, wal appends %d, want %d of each", n, pool, appends, sets)
				return
			}
			select {
			case <-stop:
				sampled <- ""
				return
			default:
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	if bad := <-sampled; bad != "" {
		t.Error(bad)
	}

	m := s.MetricsV2()
	if got := m.Totals["lc"].Completed; got != sets {
		t.Errorf("STATS2 totals.lc.completed = %d after Shutdown, want %d", got, sets)
	}
	if m.Pool.Completed != sets || m.Pool.Submitted != sets {
		t.Errorf("STATS2 pool = %+v after Shutdown, want %d submitted and completed", m.Pool, sets)
	}
	if m.WAL.WalAppends != sets {
		t.Errorf("STATS2 wal_appends = %d after Shutdown, want %d", m.WAL.WalAppends, sets)
	}
	if pool, appends := read(); pool != sets || appends != sets {
		t.Errorf("after Shutdown: PoolStats().Completed %d, Σ WALStats().Appends %d, want %d of each", pool, appends, sets)
	}
}

// TestStatsV2LatencyQuantilesSane checks the per-shard histograms feed
// plausible microsecond quantiles: positive, ordered, bounded by max.
func TestStatsV2LatencyQuantilesSane(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		c.roundTrip(t, "SET key-sane v")
		c.roundTrip(t, "GET key-sane")
	}
	doc, err := DecodeMetricsV2(c.roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	lc := doc.Totals["lc"]
	if lc.LatencyCount == 0 {
		t.Fatal("no latency observations")
	}
	if lc.P50Micros < 0 || lc.P50Micros > lc.P99Micros || lc.P99Micros > lc.P999Micros || lc.P999Micros > lc.MaxMicros {
		t.Errorf("quantiles out of order: p50=%d p99=%d p999=%d max=%d",
			lc.P50Micros, lc.P99Micros, lc.P999Micros, lc.MaxMicros)
	}
	if lc.MaxMicros > int64(10*time.Second/time.Microsecond) {
		t.Errorf("implausible max latency %dµs", lc.MaxMicros)
	}
}
