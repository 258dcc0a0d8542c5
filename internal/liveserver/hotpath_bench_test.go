package liveserver

import (
	"testing"

	"repro/internal/testutil"
	"repro/preemptible"
)

// Hot-path benchmark pair: the parse and encode sides of the request
// path, plus the full in-process GET/SET round trip. Run with
//
//	go test -bench BenchmarkHotPath -benchmem ./internal/liveserver/
//
// These are the allocs/op baselines the perf-validation harness
// (internal/perfval) records into BENCH_<n>.json and gates with
// thresholds — the numbers the planned zero-alloc parser/encoder
// rewrite must beat. Today the parse path pays strings.Fields and
// per-token slices; the encode path pays fmt/json. Keep the pair in
// sync with perfval's hot-path probes.

func newBenchServer(b *testing.B) *Server {
	b.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	s := New(rt, Config{Shards: 1})
	b.Cleanup(s.Close)
	return s
}

func BenchmarkHotPathParseLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, errLine := ParseLine("SET key-123 value-payload D1754600000000000 A1"); errLine != "" {
			b.Fatal(errLine)
		}
	}
}

func BenchmarkHotPathGET(b *testing.B) {
	s := newBenchServer(b)
	if resp := s.HandleLine("SET bench-key bench-value"); resp != "OK" {
		b.Fatalf("seed SET: %q", resp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.HandleLine("GET bench-key"); resp != "VALUE bench-value" {
			b.Fatalf("GET: %q", resp)
		}
	}
}

func BenchmarkHotPathSET(b *testing.B) {
	s := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.HandleLine("SET bench-key bench-value"); resp != "OK" {
			b.Fatalf("SET: %q", resp)
		}
	}
}

func BenchmarkHotPathStatsV2Encode(b *testing.B) {
	s := newBenchServer(b)
	s.HandleLine("SET bench-key bench-value")
	s.HandleLine("GET bench-key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if line := s.HandleLine("STATS2"); len(line) < len("STATS2 {") {
			b.Fatalf("STATS2: %q", line)
		}
	}
}

// TestAllocBudgetHandleLineGET pins the GET path's allocations: the
// field split, the key, the response and its closures — nothing below
// shard.Do (17 before the context free list, and the issue that
// introduced it allowed 8).
func TestAllocBudgetHandleLineGET(t *testing.T) {
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	s := New(rt, Config{Shards: 1})
	defer s.Close()
	if resp := s.HandleLine("SET k v"); resp != "OK" {
		t.Fatalf("seed SET: %q", resp)
	}
	testutil.AllocBudget(t, `HandleLine("GET k")`, 6, func() {
		if resp := s.HandleLine("GET k"); resp != "VALUE v" {
			t.Fatalf("GET: %q", resp)
		}
	})
}
