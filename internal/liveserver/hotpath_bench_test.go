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
// The benchmark's traced run reports the same entry points as its
// liveserver.parse / handle_line / stats2 ladder rows, and
// TestAllocBudget* pins their allocations. The request path parses and
// encodes bytes; what these string entry points still pay is the copy in
// and out (ParseLine: the line and the []string; HandleLine: a handler
// per call, the line and the response string), and STATS2 pays
// encoding/json. The byte tokenizer against the stdlib one it replaced
// is BenchmarkParseBytes / BenchmarkParseReference (reference_test.go).

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

// TestAllocBudgetHandleLineGET pins the GET path's allocations through
// the string entry point: what HandleLine sets up per call and a
// connection sets up once (the handler, its bound task, the field slice,
// one buffer for the line and the response) plus the response string —
// nothing per field, per key or below shard.Do (6 when the path ran on
// strings and closures, 17 before the context free list). The connection
// path itself is pinned over loopback: TestAllocBudgetLoopback in
// internal/tailclient.
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
	testutil.AllocBudget(t, `HandleLine("GET k")`, 5, func() {
		if resp := s.HandleLine("GET k"); resp != "VALUE v" {
			t.Fatalf("GET: %q", resp)
		}
	})
}
