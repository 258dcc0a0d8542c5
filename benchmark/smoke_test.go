package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestEveryWorkloadEndToEnd is the quick smoke: each workload's untraced
// and traced run with a 3 s window and a 2 000-op ladder. run() marks a
// result incorrect when any table metric is missing, reported twice or not
// finite, so Correct covers "every metric of BENCHMARK.json exactly once".
func TestEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cfg := config{seed: 11, seconds: 3, trace: trace, conns: 2, setUps: 1, ladder: 2000, workdir: t.TempDir()}
			if trace == 1 && w.name == "kv_read" {
				cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			rec, err := run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if cfg.traceOut != "" {
				checkSpans(t, cfg.traceOut)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Fatalf("%s trace %d: correct %v, failed %d of %d", w.name, trace, rec.Correct, rec.Failed, rec.Attempted)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Fatalf("%s trace %d: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			get := func(name string) float64 {
				v, ok := rec.Metrics[name]
				if !ok {
					t.Fatalf("%s trace %d: no %s", w.name, trace, name)
				}
				return v.Value
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if get(d.Name) <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, get(d.Name))
					}
				}
				continue
			}
			for _, zero := range []string{"shard.rejected", "shard.expired", "shard.failed", "shard.unavailable", "tailclient.conns_evicted", "mica.index_evictions"} {
				if get(zero) != 0 {
					t.Errorf("%s: %s = %v, want 0", w.name, zero, get(zero))
				}
			}
			if get("tailclient.attempts_per_op") != 1 || get("mica.hit_rate") != 1 {
				t.Errorf("%s: attempts/op %v, hit rate %v, want 1 and 1", w.name, get("tailclient.attempts_per_op"), get("mica.hit_rate"))
			}
			if p := get("preemptible.preemptions"); (w.beKB > 0) != (p > 0) {
				t.Errorf("%s: %v preemptions", w.name, p)
			}
			if (get("wal.appends") > 0) != w.durable || (get("wal.recovered_records") > 0) != w.durable {
				t.Errorf("%s: wal.appends %v, wal.recovered_records %v", w.name, get("wal.appends"), get("wal.recovered_records"))
			}
			if (get("openloop.rate_ops_s") > 0) != (w.name == "kv_read") {
				t.Errorf("%s: openloop.rate_ops_s %v", w.name, get("openloop.rate_ops_s"))
			}
		}
	}
}

// checkSpans reads a -trace-out file: every line is a span, and a span
// below the outermost level names an enclosing span of the same op.
func checkSpans(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type spanLine struct {
		Name             string
		Op, Parent       int
		Start_ns, End_ns int64
	}
	var spans []spanLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", len(spans), err)
		}
		spans = append(spans, s)
	}
	linked := 0
	for _, s := range spans {
		if s.End_ns < s.Start_ns {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			continue
		}
		linked++
		if p := spans[s.Parent]; p.Op != s.Op || p.Name == s.Name {
			t.Fatalf("span %+v has parent %+v", s, p)
		}
	}
	if len(spans) < 10*2000 || linked < 5*2000 {
		t.Fatalf("%d spans, %d with a parent", len(spans), linked)
	}
}
